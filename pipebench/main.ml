(* The paper-pipeline benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--rev REV] [--domains D] [--out DIR]
     main.exe --selftest

   One process runs one workload on [--domains] domains (default 1).
   It times its named set-up calls several times, then runs whole rounds
   of the workload until [--seconds] have passed, checks the first
   round's outputs and that every later round reproduces them, and
   prints one JSON object as the last line of stdout. With [--trace 1]
   the process runs one untraced round, one traced round and the
   per-layer probes, prints the per-layer metrics instead, and writes the
   spans to DIR as Chrome trace-event JSON with a per-layer table beside
   them. Exits 1 when a check fails, 2 on a usage error. *)

module Jsonw = Mcm_util.Jsonw

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("cpu_s", "s");
    ("items_per_s", "1/s");
    ("alloc_words_per_item", "words");
    ("promoted_words_per_item", "words");
    ("major_gcs", "count");
    ("top_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("testenv.campaign_ns_per_instance", "ns");
    ("testenv.campaign_words_per_instance", "words");
    ("testenv.assignment_ns_per_instance", "ns");
    ("testenv.assignment_words_per_instance", "words");
    ("testenv.collect_words_per_instance", "words");
    ("testenv.executed_ratio", "ratio");
    ("testenv.key_ns_per_cell", "ns");
    ("testenv.key_words_per_cell", "words");
    ("testenv.decode_ns_per_cell", "ns");
    ("testenv.encode_ns_per_cell", "ns");
    ("gpu.kernel_ns_per_instance", "ns");
    ("gpu.kernel_words_per_instance", "words");
    ("gpu.images_compiled", "count");
    ("gpu.compile_us_per_image", "us");
    ("campaign.open_s", "s");
    ("campaign.store_bytes", "bytes");
    ("campaign.find_ns_per_call", "ns");
    ("campaign.plan_s", "s");
    ("campaign.add_ns_per_call", "ns");
    ("campaign.flush_s", "s");
    ("oracle.allowed_s", "s");
    ("oracle.allowed_calls", "count");
    ("oracle.certify_s", "s");
    ("oracle.explored", "count");
    ("oracle.pruned", "count");
    ("oracle.search_ns_per_node", "ns");
    ("corpus.enumerate_s", "s");
    ("corpus.raw_programs", "count");
    ("corpus.canonical_programs", "count");
    ("corpus.admit_s", "s");
    ("corpus.admit_ns_per_candidate", "ns");
    ("corpus.admitted", "count");
    ("corpus.admit_yield", "ratio");
    ("corpus.operator_s", "s");
    ("corpus.print_s", "s");
    ("corpus.bytes", "bytes");
    ("corpus.parse_s", "s");
    ("harness.grid_s", "s");
    ("harness.cells", "count");
    ("harness.report_s", "s");
    ("harness.table4_s", "s");
    ("untraced_s", "s");
    ("trace.overhead_s", "s");
  ]

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("pipebench: " ^ s); exit code) fmt

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

type sample = {
  wall : float;
  cpu : float;
  minor : float;
  promoted : float;
  major : int;
  items : int;
  digest : string;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One round from a collected heap, with its time, CPU time and GC
   deltas. [Gc.minor_words] is exact; [quick_stat]'s promoted words and
   major collections are read after the round's last minor collection
   point, which is where they change. The output digest is computed
   after the round is timed. *)
let measure (w : Workloads.t) =
  Gc.full_major ();
  let q0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let c0 = cpu () in
  let t0 = Unix.gettimeofday () in
  let items, digest = w.round () in
  let t1 = Unix.gettimeofday () in
  let c1 = cpu () in
  let m1 = Gc.minor_words () in
  let q1 = Gc.quick_stat () in
  let digest = digest () in
  {
    wall = t1 -. t0;
    cpu = c1 -. c0;
    minor = m1 -. m0;
    promoted = q1.Gc.promoted_words -. q0.Gc.promoted_words;
    major = q1.Gc.major_collections - q0.Gc.major_collections;
    items;
    digest;
  }

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time_setup (w : Workloads.t) =
  median
    (List.init w.setup_reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         w.setup ();
         Unix.gettimeofday () -. t0))

(* ------------------------------------------------------------------ *)
(* Arguments and provenance                                             *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  rev : string;
  domains : int;
  out : string;
}

let usage () =
  die 2
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--rev REV] [--domains D] \
     [--out DIR] | --selftest"
    (String.concat "|" Workloads.names)

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  let str k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (str k) with Some n -> n | None -> die 2 "--%s: expected an integer" k
  in
  let opt k d = Option.value (Hashtbl.find_opt tbl k) ~default:d in
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "rev"; "domains"; "out" ]) then
        die 2 "unknown option --%s" k)
    tbl;
  let workload = str "workload" in
  if not (List.mem workload Workloads.names) then usage ();
  let trace = match str "trace" with "0" -> false | "1" -> true | _ -> die 2 "--trace: expected 0 or 1" in
  let domains =
    match int_of_string_opt (opt "domains" "1") with
    | Some d when d >= 1 && d <= 64 -> d
    | _ -> die 2 "--domains: expected an integer in 1..64"
  in
  let seconds = int "seconds" in
  if seconds < 1 then die 2 "--seconds: expected a positive integer";
  {
    workload;
    seed = int "seed";
    seconds;
    trace;
    rev = opt "rev" "unknown";
    domains;
    out = opt "out" "_pipebench";
  }

(* A stray MCM_* variable would silently change the work of
   Tuning.default_config and Table4.compute; refuse to measure. *)
let refuse_mcm_env () =
  Array.iter
    (fun kv ->
      if String.length kv >= 4 && String.sub kv 0 4 = "MCM_" then
        die 2 "refusing to run with %s set: the workloads pin every configuration" kv)
    (Unix.environment ())

let provenance a =
  Jsonw.Obj
    [
      ("gitRevision", Jsonw.String a.rev);
      ("nproc", Jsonw.Int (Domain.recommended_domain_count ()));
      ("profile", Jsonw.String Build_info.profile);
      ("ocaml", Jsonw.String Sys.ocaml_version);
      ("domains", Jsonw.Int a.domains);
      ("seed", Jsonw.Int a.seed);
      ("workload", Jsonw.String a.workload);
      ("seconds", Jsonw.Int a.seconds);
      ("trace", Jsonw.Bool a.trace);
    ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let result ~correct ~attempted ~failed metrics =
  Jsonw.Obj
    [
      ("correct", Jsonw.Bool correct);
      ("attempted", Jsonw.Int attempted);
      ("failed", Jsonw.Int failed);
      ( "metrics",
        Jsonw.Obj
          (List.map
             (fun (name, unit, v) -> (name, Jsonw.Obj [ ("value", Jsonw.Float v); ("unit", Jsonw.String unit) ]))
             metrics) );
    ]

let table metrics =
  String.concat ""
    (List.map (fun (name, unit, v) -> Printf.sprintf "  %-40s %16.6g %s\n" name v unit) metrics)

let run a =
  let (w : Workloads.t) = Workloads.make a.workload ~domains:a.domains ~seed:a.seed ~dir:a.out in
  mkdir_p a.out;
  let setup_s = time_setup w in
  let failures = ref [] in
  let images0 = Mcm_gpu.Kernel.images_built () in
  let first = measure w in
  let images = Mcm_gpu.Kernel.images_built () - images0 in
  (* The process's peak heap up to the end of the first round: later
     rounds reuse that heap, but fragmentation would make the figure
     grow with the number of rounds. *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  failures := w.check ();
  if not a.trace then w.release ();
  let same s =
    if s.digest <> first.digest then
      failures := "a later round's outputs differ from the first round's" :: !failures
  in
  let metrics, samples =
    if not a.trace then begin
      let rec more acc elapsed =
        if elapsed >= float_of_int a.seconds then List.rev acc
        else
          let s = measure w in
          same s;
          more (s :: acc) (elapsed +. s.wall)
      in
      let samples = more [ first ] first.wall in
      let med f = median (List.map f samples) in
      let items = float_of_int first.items in
      ( List.map2
          (fun (name, unit) v -> (name, unit, v))
          end_to_end
          [
            setup_s;
            med (fun s -> s.wall);
            med (fun s -> s.cpu);
            med (fun s -> float_of_int s.items /. s.wall);
            first.minor /. items;
            first.promoted /. items;
            float_of_int first.major;
            float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.;
          ],
        samples )
    end
    else begin
      Span.recording := true;
      let traced = Span.with_ "round" (fun () -> measure w) in
      same traced;
      (* The round's own spans follow one another, so their durations add. *)
      let round_id = (List.find (fun sp -> sp.Span.name = "round") (Span.all ())).Span.id in
      let covered =
        List.fold_left
          (fun acc sp -> if sp.Span.parent = round_id then acc +. (sp.Span.end_s -. sp.Span.start_s) else acc)
          0. (Span.all ())
      in
      let untraced_s = traced.wall -. covered in
      let probed = Span.with_ "probe" w.probe in
      let values =
        [
          ("gpu.images_compiled", float_of_int images);
          ("untraced_s", untraced_s);
          ("trace.overhead_s", traced.wall -. first.wall);
        ]
        @ probed
      in
      let metrics =
        List.map
          (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name values) ~default:0.))
          per_layer
      in
      let stem = Filename.concat a.out (Printf.sprintf "trace-%s-%d" a.workload a.seed) in
      let oc = open_out (stem ^ ".json") in
      Jsonw.to_channel oc (Span.to_chrome ~workload:a.workload ~provenance:(provenance a));
      close_out oc;
      let oc = open_out (stem ^ ".txt") in
      output_string oc (table metrics);
      close_out oc;
      Printf.eprintf "pipebench: trace written to %s.json, per-layer table to %s.txt\n" stem stem;
      (metrics, [ first; traced ])
    end
  in
  w.finish ();
  prerr_string (table metrics);
  Printf.eprintf "pipebench: %d round(s) of %s s, output digest %s\n" (List.length samples)
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.wall) samples))
    first.digest;
  List.iter (fun f -> prerr_endline ("pipebench: check failed: " ^ f)) !failures;
  let attempted = List.fold_left (fun acc s -> acc + s.items) 0 samples in
  let correct = !failures = [] in
  print_endline
    (Jsonw.to_string
       (result ~correct ~attempted ~failed:(if correct then 0 else attempted) metrics));
  if not correct then exit 1

let () =
  refuse_mcm_env ();
  match List.tl (Array.to_list Sys.argv) with
  | [ "--selftest" ] -> exit (Selftest.run ())
  | argv ->
      let a = parse argv in
      prerr_endline ("pipebench: provenance " ^ Jsonw.to_string (provenance a));
      run a
