(* The four workloads. Each is built from the seed and the domain count,
   and exposes its named set-up calls, one round of timed work, the
   output checks of its first round, and the per-layer probes of the
   traced run. Every configuration is passed explicitly: nothing here
   reads an MCM_* variable. *)

module Tuning = Mcm_harness.Tuning
module Experiments = Mcm_harness.Experiments
module Grid = Mcm_harness.Grid
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Suite = Mcm_core.Suite
module Merge = Mcm_core.Merge
module Mutator = Mcm_core.Mutator
module Device = Mcm_gpu.Device
module Profile = Mcm_gpu.Profile
module Litmus = Mcm_litmus.Litmus
module Model = Mcm_memmodel.Model
module Engine = Mcm_oracle.Engine
module Certify = Mcm_oracle.Certify
module Soundness = Mcm_oracle.Soundness
module Outcome = Mcm_oracle.Outcome
module Corpus = Mcm_corpus.Corpus
module Admit = Mcm_corpus.Admit
module Generate = Mcm_corpus.Generate
module Shape = Mcm_corpus.Shape
module Store = Mcm_campaign.Store
module Sched = Mcm_campaign.Sched
module Table = Mcm_util.Table
module Jsonw = Mcm_util.Jsonw
module Prng = Mcm_util.Prng

type t = {
  setup_reps : int;
  setup : unit -> unit;  (** the named set-up calls; the last call's state is used *)
  round : unit -> int * (unit -> string);
      (** one round: its items, and the digest of its outputs, computed
          after the round is timed *)
  check : unit -> string list;  (** failures of the first round's outputs *)
  probe : unit -> (string * float) list;  (** per-layer metrics, traced run only *)
  release : unit -> unit;  (** drop the first round's outputs *)
  finish : unit -> unit;  (** remove what the workload wrote to disk *)
}

(* The first round's outputs, kept for the checks and probes. Released
   once they are done with, so that later rounds run on the heap the
   first one ran on and the peak heap does not grow with the round
   count. *)
type 'a first = { mutable value : 'a option; mutable kept : bool }

let first () = { value = None; kept = false }
let get f = match f.value with Some x -> x | None -> invalid_arg "workload: first round not kept"

let keep f x =
  if not f.kept then begin
    f.value <- Some x;
    f.kept <- true
  end

let release f () = f.value <- None
let generate_suite () = match Suite.generate () with Ok _ -> () | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* paper: the default-scale tuning sweep and the figures it feeds      *)

(* Tuning.default_config's values with no MCM_* variable set. *)
let paper_config =
  { Tuning.n_envs = 16; site_iterations = 120; pte_iterations = 10; scale = 0.02; seed = 20230325 }

let table4_envs = 40
let table4_iterations = 8
let cts_target = 0.99999
let cts_budget = 4.0

(* One cell of the tuning sweep grid, with the coordinates its run
   record carries. *)
type cell = {
  category : Tuning.category;
  env_index : int;
  entry : Suite.entry;
  request : Request.t;
}

(* The grid Tuning.sweep runs for [config], laid out and seeded as
   Tuning.sweep lays it out and seeds it, except that the campaign seeds
   derive from [seed] while the environments stay those of
   [config.seed]. The environments set the amount of work (their sizes
   vary a lot from draw to draw), so every seed does the same work on
   the paper's own environments, and the seed draws the campaigns. With
   [seed = config.seed] this is exactly Tuning.sweep's grid, which the
   self-test checks. *)
let sweep_cells (config : Tuning.config) ~seed ~devices ~tests =
  Array.of_list
    (List.concat_map
       (fun category ->
         let iterations =
           match category with
           | Tuning.Site_baseline | Tuning.Site -> config.Tuning.site_iterations
           | Tuning.Pte_baseline | Tuning.Pte -> config.Tuning.pte_iterations
         in
         List.concat
           (List.mapi
              (fun env_index env ->
                List.concat_map
                  (fun device ->
                    List.map
                      (fun (entry : Suite.entry) ->
                        let test = entry.Suite.test in
                        let seed =
                          Prng.mix seed
                            (Hashtbl.hash
                               (Tuning.category_name category, env_index, Device.name device, test.Litmus.name))
                        in
                        let request = Request.make ~device ~env ~test ~iterations ~seed () in
                        { category; env_index; entry; request })
                      tests)
                  devices)
              (Tuning.envs_for config category)))
       Tuning.all_categories)

(* The sweep over [cells] through Grid.run, as Tuning.sweep runs it. *)
let sweep ctx cells =
  let family i =
    let r = cells.(i).request in
    Hashtbl.hash (Device.name r.Request.device, r.Request.test.Litmus.name) land max_int
  in
  let results =
    Grid.run ctx (Grid.make ~family Runner.Rate ~n:(Array.length cells) ~request:(fun i -> cells.(i).request))
  in
  Array.to_list
    (Array.mapi
       (fun i result ->
         let c = cells.(i) in
         {
           Tuning.category = c.category;
           env_index = c.env_index;
           env = c.request.Request.env;
           device = c.request.Request.device;
           test_name = c.entry.Suite.test.Litmus.name;
           mutator = c.entry.Suite.mutator;
           result;
         })
       results)

let device_names = List.map (fun p -> p.Profile.short_name) Profile.all

(* Alg. 1 over the PTE environments, one choice per mutant. *)
let cts_choices config runs =
  let n_envs = config.Tuning.n_envs in
  let devices = Array.of_list device_names in
  List.map
    (fun (e : Suite.entry) ->
      let name = e.Suite.test.Litmus.name in
      let rate ~env ~device =
        Tuning.rate runs Tuning.Pte ~test:name ~device:devices.(device) ~env_index:env
      in
      Merge.choose ~rate ~n_envs ~n_devices:(Array.length devices) ~target:cts_target ~budget:cts_budget)
    (Suite.mutants ())

let results_digest runs =
  String.concat ","
    (List.map (fun (r : Tuning.run) -> Jsonw.to_string (Runner.result_to_json r.Tuning.result)) runs)

let instances runs = List.fold_left (fun a (r : Tuning.run) -> a + r.Tuning.result.Runner.instances) 0 runs

type paper_out = {
  runs : Tuning.run list;
  choices : Merge.choice option list;
  rows : Experiments.Table4.row list;
}

let paper ~domains ~seed =
  let ctx = Request.context ~domains () in
  let config = paper_config in
  let cells = ref [||] in
  let setup () =
    generate_suite ();
    cells := sweep_cells config ~seed ~devices:(Device.all_correct ()) ~tests:(Suite.mutants ())
  in
  let first = first () in
  let round () =
    let runs = Span.with_ "harness.grid" (fun () -> sweep ctx !cells) in
    let choices, tables =
      Span.with_ "harness.report" (fun () ->
          let fig5 = List.map (fun (t, tbl) -> t ^ "\n" ^ Table.render tbl) (Experiments.Fig5.all_tables runs) in
          let fig6 = Table.render (Experiments.Fig6.table runs) in
          let choices = cts_choices config runs in
          (choices, Table.render (Experiments.table2 ()) :: fig6 :: fig5))
    in
    (* Table 4 draws its environments from its seed, so it runs at the
       paper configuration's seed: a free seed would change its size. *)
    let rows =
      Span.with_ "harness.table4" (fun () ->
          Experiments.Table4.compute ~ctx ~n_envs:table4_envs ~iterations:table4_iterations
            ~scale:config.Tuning.scale ~seed:config.Tuning.seed ())
    in
    let t4 = Span.with_ "harness.report" (fun () -> Table.render (Experiments.Table4.table rows)) in
    keep first { runs; choices; rows };
    ( instances runs,
      fun () -> Digest.to_hex (Digest.string (String.concat "\n" (tables @ [ t4; results_digest runs ]))) )
  in
  let check () =
    let o = get first in
    (if List.length o.runs = Array.length !cells then []
     else Checks.fail "paper: %d runs, expected %d" (List.length o.runs) (Array.length !cells))
    @ Checks.check_runs o.runs
    @ Checks.check_fig5 o.runs (Checks.fig5_reported o.runs)
    @ Checks.check_fig6 (Checks.fig6_series o.runs)
    @ Checks.check_table4 ~n_envs:table4_envs o.rows
    @ Checks.check_cts ~n_envs:config.Tuning.n_envs ~n_devices:(List.length device_names) o.choices
  in
  let probe () =
    let o = get first in
    let reqs = Array.map (fun c -> c.request) !cells in
    let table4_cells =
      List.fold_left
        (fun a (_, conf, _) -> a + ((1 + List.length (Suite.mutants_of conf)) * table4_envs))
        0 Experiments.Table4.cases
    in
    let results = Array.of_list (List.map (fun (r : Tuning.run) -> r.Tuning.result) o.runs) in
    Probe.cells reqs @ Probe.compile reqs
    @ Probe.codec_metrics ~cells:(Array.length reqs) (Probe.codec Runner.Rate reqs results)
    @ [
        ("harness.grid_s", Span.seconds "harness.grid");
        ("harness.cells", float_of_int (Array.length reqs + table4_cells));
        ("harness.report_s", Span.seconds "harness.report");
        ("harness.table4_s", Span.seconds "harness.table4");
      ]
  in
  { setup_reps = 31; setup; round; check; probe; release = release first; finish = ignore }

(* ------------------------------------------------------------------ *)
(* soundness: certification and the simulator soundness matrix         *)

let soundness_iterations = 2

(* The soundness grid as Soundness.check lays it out. *)
let soundness_requests ~tests ~devices ~envs ~iterations ~seed =
  Array.of_list
    (List.concat_map
       (fun test ->
         List.concat_map
           (fun device ->
             List.map (fun (_, env) -> Request.make ~device ~env ~test ~iterations ~seed ()) envs)
           devices)
       tests)

let soundness ~domains ~seed =
  let ctx = Request.context ~domains () in
  let engine = Engine.Propagate in
  let tests = ref [] and envs = ref [] and devices = ref [] in
  let setup () =
    generate_suite ();
    tests := Soundness.default_tests ();
    envs := Soundness.default_envs ~scale:0.02 ();
    devices := Device.all_correct ()
  in
  let first = first () in
  let round () =
    let suite = Span.with_ "oracle.certify" (fun () -> Certify.suite ~engine ~domains ()) in
    let library = Span.with_ "oracle.certify" (fun () -> Certify.library ~engine ~domains ()) in
    let report =
      Span.with_ "oracle.soundness" (fun () ->
          Soundness.check ~engine ~ctx ~iterations:soundness_iterations ~seed ~devices:!devices
            ~envs:!envs ~tests:!tests ())
    in
    keep first (suite, library, report);
    ( report.Soundness.total_instances,
      fun () ->
        Digest.to_hex
          (Digest.string
             (String.concat "\n"
                (List.map Jsonw.to_string
                   [
                     Certify.report_to_json suite;
                     Certify.report_to_json library;
                     Soundness.report_to_json report;
                   ]))) )
  in
  let layouts () = List.sort_uniq compare (List.map (fun (_, e) -> Runner.layout_of_env e) !envs) in
  let check () =
    let suite, library, report = get first in
    let allowed =
      List.concat_map
        (fun (t : Litmus.t) ->
          List.map
            (fun layout ->
              ( t.Litmus.name,
                Outcome.allowed ~engine:Engine.Propagate ~layout t.Litmus.model t,
                Outcome.allowed ~engine:Engine.Enumerate ~layout t.Litmus.model t ))
            (layouts ()))
        !tests
    in
    Checks.check_certify ~suite ~library
    @ Checks.check_soundness
        ~points:(List.length !tests * List.length !devices * List.length !envs)
        report
    @ Checks.check_allowed allowed
  in
  let probe () =
    let reqs =
      soundness_requests ~tests:!tests ~devices:!devices ~envs:!envs ~iterations:soundness_iterations ~seed
    in
    let cells =
      Span.with_ "harness.grid" (fun () ->
          Grid.run ctx (Grid.make Runner.Outcomes ~n:(Array.length reqs) ~request:(Array.get reqs)))
    in
    let calls = ref 0 in
    let _, allowed_s, _ =
      Probe.timed "oracle.allowed" (fun () ->
          List.iter
            (fun (t : Litmus.t) ->
              List.iter
                (fun layout ->
                  incr calls;
                  ignore (Outcome.allowed ~engine ~layout t.Litmus.model t))
                (layouts ()))
            !tests)
    in
    let codec = Probe.codec Runner.Outcomes reqs cells in
    Probe.cells reqs @ Probe.compile reqs
    @ Probe.codec_metrics ~cells:(Array.length reqs) codec
    @ Probe.search !tests
    @ [
        ("oracle.allowed_s", allowed_s);
        ("oracle.allowed_calls", float_of_int !calls);
        ("oracle.certify_s", Span.seconds "oracle.certify");
        ("harness.grid_s", Span.seconds "harness.grid");
        ("harness.cells", float_of_int (Array.length reqs));
      ]
  in
  { setup_reps = 31; setup; round; check; probe; release = release first; finish = ignore }

(* ------------------------------------------------------------------ *)
(* corpus: generation, certification and the corpus file format        *)

let corpus_shape = "2x6x2"
let recertified_sample = 32

let corpus ~domains ~seed =
  let meta = ref Corpus.default_meta in
  let setup () =
    generate_suite ();
    let shape =
      match Shape.of_spec ~rmw:false ~fence:false ~wg_fence:false corpus_shape with
      | Ok s -> s
      | Error e -> failwith e
    in
    meta :=
      {
        Corpus.shape;
        model = Model.Sc_per_location;
        seed;
        bound = None;
        ops = Mutator.all_ops;
        engine = Engine.Propagate;
        shard = None;
      }
  in
  let first = first () in
  let round () =
    let c = Span.with_ "corpus.generate" (fun () -> Corpus.generate ~cross_check:false ~domains !meta) in
    let s = Span.with_ "corpus.print" (fun () -> Corpus.to_string c) in
    let c' = Span.with_ "corpus.parse" (fun () -> Corpus.of_string s) in
    keep first (c, s, c');
    (c.Corpus.stats.Admit.candidates, fun () -> Digest.to_hex (Digest.string s))
  in
  let check () =
    let c, _, c' = get first in
    let other =
      match !meta.Corpus.engine with
      | Engine.Propagate -> Engine.Enumerate
      | Engine.Enumerate -> Engine.Propagate
    in
    let rechecked =
      List.map
        (fun (e : Admit.entry) -> (e, Admit.certify ~engine:other e.polarity e.test))
        (Generate.sample ~seed ~bound:recertified_sample c.Corpus.entries)
    in
    Checks.check_classics c.Corpus.entries
    @ Checks.check_admission c.Corpus.stats
    @ Checks.check_roundtrip c c'
    @ Checks.check_recertified rechecked
  in
  let probe () =
    let c, s, _ = get first in
    let m = !meta in
    let (skeletons, raw), enumerate_s, _ =
      Probe.timed "corpus.enumerate" (fun () -> Generate.enumerate m.Corpus.shape)
    in
    let (_, gen), admit_s, _ =
      Probe.timed "corpus.admit" (fun () ->
          Admit.generated ~engine:m.Corpus.engine ~cross_check:false ~domains ~seed:m.Corpus.seed
            ~model:m.Corpus.model m.Corpus.shape)
    in
    let _, operator_s, _ =
      Probe.timed "corpus.operator" (fun () ->
          Admit.operator_mutants ~engine:m.Corpus.engine ~cross_check:false ~domains ~ops:m.Corpus.ops
            (List.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.conformance_tests ())))
    in
    Probe.search (List.map (fun (e : Admit.entry) -> e.test) c.Corpus.entries)
    @ [
        ("corpus.enumerate_s", enumerate_s);
        ("corpus.raw_programs", float_of_int raw);
        ("corpus.canonical_programs", float_of_int (List.length skeletons));
        ("corpus.admit_s", admit_s);
        ("corpus.admit_ns_per_candidate", Probe.ratio (admit_s *. 1e9) (float_of_int gen.Admit.candidates));
        ("corpus.admitted", float_of_int c.Corpus.stats.Admit.admitted);
        ("corpus.admit_yield", Probe.ratio (float_of_int gen.Admit.admitted) (float_of_int gen.Admit.programs));
        ("corpus.operator_s", operator_s);
        ("corpus.print_s", Span.seconds "corpus.print");
        ("corpus.bytes", float_of_int (String.length s));
        ("corpus.parse_s", Span.seconds "corpus.parse");
      ]
  in
  { setup_reps = 31; setup; round; check; probe; release = release first; finish = ignore }

(* ------------------------------------------------------------------ *)
(* replay: a warm store serving the paper and soundness grids          *)

(* The write path runs in set-up, so its grids use reduced iteration
   counts; the warm path's cost does not depend on them. *)
let replay_config = { paper_config with Tuning.site_iterations = 1; pte_iterations = 1 }
let replay_soundness_iterations = 1
let replay_passes = 32

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let replay ~domains ~seed ~dir =
  let config = replay_config in
  let rep = ref 0 in
  let store_dir () = Filename.concat dir (Printf.sprintf "replay-%d-%d" (Unix.getpid ()) !rep) in
  let paper_reqs = ref [||] and paper_cold = ref [||] in
  let snd_reqs = ref [||] and snd_cold = ref [||] in
  let encode collect = Array.map (fun v -> Jsonw.to_string (Runner.encode collect v)) in
  let setup () =
    remove (store_dir ());
    incr rep;
    generate_suite ();
    let devices = Device.all_correct () in
    let store = Store.open_store (store_dir ()) in
    let ctx = Request.context ~domains ~store () in
    let cells = sweep_cells config ~seed ~devices ~tests:(Suite.mutants ()) in
    let runs = sweep ctx cells in
    let reqs =
      soundness_requests ~tests:(Soundness.default_tests ()) ~devices
        ~envs:(Soundness.default_envs ~scale:0.02 ())
        ~iterations:replay_soundness_iterations ~seed
    in
    let outcomes = Grid.run ctx (Grid.make Runner.Outcomes ~n:(Array.length reqs) ~request:(Array.get reqs)) in
    Store.close store;
    paper_reqs := Array.map (fun c -> c.request) cells;
    paper_cold := encode Runner.Rate (Array.of_list (List.map (fun (r : Tuning.run) -> r.Tuning.result) runs));
    snd_reqs := reqs;
    snd_cold := encode Runner.Outcomes outcomes
  in
  let first = first () in
  let grids ctx =
    let p, ps =
      Span.with_ "harness.grid" (fun () ->
          Grid.run_stats ctx
            (Grid.make Runner.Rate ~n:(Array.length !paper_reqs) ~request:(Array.get !paper_reqs)))
    in
    let s, ss =
      Span.with_ "harness.grid" (fun () ->
          Grid.run_stats ctx
            (Grid.make Runner.Outcomes ~n:(Array.length !snd_reqs) ~request:(Array.get !snd_reqs)))
    in
    (p, ps, s, ss)
  in
  (* One pass is what a second [mcmutants fig5 --store DIR] does to the
     store; a round is several passes, so that each round promotes
     enough to run whole major collections. *)
  let pass () =
    let store = Span.with_ "campaign.open" (fun () -> Store.open_store (store_dir ())) in
    let out = grids (Request.context ~domains ~store ()) in
    Store.close store;
    keep first out;
    out
  in
  let text (p, _, s, _) =
    String.concat "\n" (Array.to_list (encode Runner.Rate p) @ Array.to_list (encode Runner.Outcomes s))
  in
  (* Later passes are compared with the round's first structurally, which
     is cheap beside a pass and keeps no pass alive past the next. *)
  let round () =
    let (p, _, s, _) as out = pass () in
    let agree = ref true in
    for _ = 2 to replay_passes do
      if pass () <> out then agree := false
    done;
    ( replay_passes * (Array.length p + Array.length s),
      fun () -> if !agree then Digest.to_hex (Digest.string (text out)) else "passes disagree" )
  in
  let check () =
    let p, ps, s, ss = get first in
    let stats what = function
      | Some st -> Checks.check_sched ~what st
      | None -> Checks.fail "replay %s: no store statistics" what
    in
    Checks.check_warm ~what:"paper" ~cold:!paper_cold ~warm:(encode Runner.Rate p)
    @ Checks.check_warm ~what:"soundness" ~cold:!snd_cold ~warm:(encode Runner.Outcomes s)
    @ stats "paper" ps @ stats "soundness" ss
    @ Checks.check_verify (store_dir ())
  in
  let probe () =
    let store = Store.open_store (store_dir ()) in
    let keys = Array.map (Request.key ~kind:(Runner.kind Runner.Rate)) !paper_reqs in
    let snd_keys = Array.map (Request.key ~kind:(Runner.kind Runner.Outcomes)) !snd_reqs in
    let all_keys = Array.append keys snd_keys in
    let payloads, find_s, _ =
      Probe.timed "campaign.find" (fun () -> Array.map (fun k -> Option.get (Store.find store k)) all_keys)
    in
    let _, plan_s, _ =
      Probe.timed "campaign.plan" (fun () ->
          ignore (Sched.plan store ~key:(Array.get keys) ~n:(Array.length keys));
          ignore (Sched.plan store ~key:(Array.get snd_keys) ~n:(Array.length snd_keys)))
    in
    let bytes = (Store.stats store).Store.s_bytes in
    Store.close store;
    let fresh = Filename.concat dir (Printf.sprintf "replay-%d-probe" (Unix.getpid ())) in
    remove fresh;
    let w = Store.open_store fresh in
    let _, add_s, _ =
      Probe.timed "campaign.add" (fun () -> Array.iteri (fun i k -> Store.add w k payloads.(i)) all_keys)
    in
    let _, flush_s, _ = Probe.timed "campaign.flush" (fun () -> Store.flush w) in
    Store.close w;
    remove fresh;
    let decoded collect reqs cold =
      Array.mapi
        (fun i _ ->
          match Mcm_util.Jsonp.parse cold.(i) with
          | Error e -> failwith e
          | Ok j -> ( match Runner.decode collect j with Ok v -> v | Error e -> failwith e))
        reqs
    in
    let k1, w1, e1, d1 = Probe.codec Runner.Rate !paper_reqs (decoded Runner.Rate !paper_reqs !paper_cold) in
    let k2, w2, e2, d2 = Probe.codec Runner.Outcomes !snd_reqs (decoded Runner.Outcomes !snd_reqs !snd_cold) in
    let n = Array.length all_keys in
    Probe.codec_metrics ~cells:n (k1 +. k2, w1 +. w2, e1 +. e2, d1 +. d2)
    @ [
        ("campaign.open_s", Span.mean "campaign.open");
        ("campaign.store_bytes", float_of_int bytes);
        ("campaign.find_ns_per_call", Probe.ratio (find_s *. 1e9) (float_of_int n));
        ("campaign.plan_s", plan_s);
        ("campaign.add_ns_per_call", Probe.ratio (add_s *. 1e9) (float_of_int n));
        ("campaign.flush_s", flush_s);
        ("harness.grid_s", Span.seconds "harness.grid");
        ("harness.cells", float_of_int n);
      ]
  in
  let finish () = remove (store_dir ()) in
  { setup_reps = 3; setup; round; check; probe; release = release first; finish }

let names = [ "paper"; "soundness"; "corpus"; "replay" ]

let make name ~domains ~seed ~dir =
  match name with
  | "paper" -> paper ~domains ~seed
  | "soundness" -> soundness ~domains ~seed
  | "corpus" -> corpus ~domains ~seed
  | "replay" -> replay ~domains ~seed ~dir
  | _ -> invalid_arg name
