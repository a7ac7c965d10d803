(* Each output check, fed a known-wrong input at the smallest size that
   exercises it, must report a failure; fed the matching correct input,
   it must report none. [main.exe --selftest] runs every case and exits
   1 if any check misses its wrong input or rejects its right one. *)

module Tuning = Mcm_harness.Tuning
module Experiments = Mcm_harness.Experiments
module Grid = Mcm_harness.Grid
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Params = Mcm_testenv.Params
module Suite = Mcm_core.Suite
module Device = Mcm_gpu.Device
module Profile = Mcm_gpu.Profile
module Bug = Mcm_gpu.Bug
module Library = Mcm_litmus.Library
module Engine = Mcm_oracle.Engine
module Certify = Mcm_oracle.Certify
module Soundness = Mcm_oracle.Soundness
module Outcome = Mcm_oracle.Outcome
module Corpus = Mcm_corpus.Corpus
module Admit = Mcm_corpus.Admit
module Store = Mcm_campaign.Store
module Sched = Mcm_campaign.Sched
module Jsonw = Mcm_util.Jsonw

let cases = ref []
let case name ~right ~wrong = cases := (name, right, wrong) :: !cases

(* The first occurrence of [sub] in [s] replaced by [by]. *)
let replace_first s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec find i = if i + m > n then invalid_arg sub else if String.sub s i m = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

let paper () =
  let config = { Tuning.n_envs = 1; site_iterations = 1; pte_iterations = 1; scale = 0.02; seed = 1 } in
  let devices = Device.all_correct () and tests = Suite.mutants () in
  let runs = Tuning.sweep ~ctx:Request.serial ~devices ~tests config in
  let ours seed = Workloads.sweep Request.serial (Workloads.sweep_cells config ~seed ~devices ~tests) in
  case "sweep grid: the benchmark's grid is Tuning.sweep's"
    ~right:(fun () -> Checks.check_same_runs runs (ours config.Tuning.seed))
    ~wrong:(fun () -> Checks.check_same_runs runs (ours (config.Tuning.seed + 1)));
  let reported = Checks.fig5_reported runs in
  let perturbed =
    List.mapi (fun i (l, s, r) -> if i = 0 then (l, s +. 0.01, r) else (l, s, r)) reported
  in
  case "fig5: perturbed mutation score"
    ~right:(fun () -> Checks.check_fig5 runs reported)
    ~wrong:(fun () -> Checks.check_fig5 runs perturbed);
  let series = Checks.fig6_series runs in
  let decreasing = List.map (fun (k, s) -> (k, List.rev (1.0 :: List.tl s))) series in
  case "fig6: series decreasing in budget"
    ~right:(fun () -> Checks.check_fig6 series)
    ~wrong:(fun () -> Checks.check_fig6 decreasing);
  let over = function
    | (r : Tuning.run) :: rest ->
        { r with Tuning.result = { r.Tuning.result with Runner.kills = r.Tuning.result.Runner.instances + 1 } }
        :: rest
    | [] -> []
  in
  case "runs: kills above instances"
    ~right:(fun () -> Checks.check_runs runs)
    ~wrong:(fun () -> Checks.check_runs (over runs));
  let choices = Workloads.cts_choices config runs in
  let shifted =
    choices @ [ Some { Mcm_core.Merge.env = 1; devices_at_ceiling = 0; min_positive_rate = Float.infinity } ]
  in
  case "cts: chosen environment out of range"
    ~right:(fun () -> Checks.check_cts ~n_envs:1 ~n_devices:4 choices)
    ~wrong:(fun () -> Checks.check_cts ~n_envs:1 ~n_devices:4 shifted);
  let rows = Experiments.Table4.compute ~n_envs:3 ~iterations:1 ~scale:0.02 ~seed:1 () in
  let bad = List.mapi (fun i (r : Experiments.Table4.row) -> if i = 0 then { r with pcc = 1.5 } else r) rows in
  case "table4: |pcc| above 1"
    ~right:(fun () -> Checks.check_table4 ~n_envs:3 rows)
    ~wrong:(fun () -> Checks.check_table4 ~n_envs:3 bad);
  case "table4: n_envs other than requested"
    ~right:(fun () -> Checks.check_table4 ~n_envs:3 rows)
    ~wrong:(fun () -> Checks.check_table4 ~n_envs:4 rows)

let soundness () =
  let envs = [ ("pte@0.02", Params.scaled Params.pte_baseline 0.02) ] in
  let corr = (Option.get (Suite.find "CoRR")).Suite.test in
  let check device = Soundness.check ~iterations:2 ~seed:1 ~devices:[ device ] ~envs ~tests:[ corr ] () in
  case "soundness: device with a Bug injection"
    ~right:(fun () -> Checks.check_soundness ~points:1 (check (Device.make Profile.intel)))
    ~wrong:(fun () ->
      Checks.check_soundness ~points:1 (check (Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.intel)));
  let mp = Library.mp and sb = Library.sb in
  let allowed t = Outcome.allowed ~engine:Engine.Propagate t.Mcm_litmus.Litmus.model t in
  case "allowed sets: engines differ"
    ~right:(fun () ->
      Checks.check_allowed [ ("MP", allowed mp, Outcome.allowed ~engine:Engine.Enumerate mp.model mp) ])
    ~wrong:(fun () -> Checks.check_allowed [ ("MP", allowed mp, allowed sb) ]);
  let report = Certify.library ~domains:1 () in
  let failing =
    {
      Certify.verdicts =
        List.mapi (fun i v -> if i = 0 then { v with Certify.ok = false } else v) report.Certify.verdicts;
      failures = 1;
    }
  in
  let suite = Certify.suite ~domains:1 () in
  case "certify: one failing verdict"
    ~right:(fun () -> Checks.check_certify ~suite ~library:report)
    ~wrong:(fun () -> Checks.check_certify ~suite ~library:failing)

let corpus () =
  let meta = { Corpus.default_meta with Corpus.ops = [] } in
  let c = Corpus.generate ~domains:1 meta in
  let s = Corpus.to_string c in
  let edited = replace_first s ~sub:"store x 1" ~by:"store x 2" in
  case "corpus: entry edited after its key was computed"
    ~right:(fun () -> Checks.check_roundtrip c (Corpus.of_string s))
    ~wrong:(fun () -> Checks.check_roundtrip c (Corpus.of_string edited));
  let sk = Mcm_corpus.Generate.(to_string (canonical (of_threads Library.mp.Mcm_litmus.Litmus.threads))) in
  case "corpus: MP missing"
    ~right:(fun () -> Checks.check_classics c.Corpus.entries)
    ~wrong:(fun () ->
      Checks.check_classics (List.filter (fun (e : Admit.entry) -> e.skeleton <> sk) c.Corpus.entries));
  let e = List.hd c.Corpus.entries in
  let other = Admit.certify ~engine:Engine.Enumerate e.polarity e.test in
  case "corpus: other engine's verdict differs"
    ~right:(fun () -> Checks.check_recertified [ (e, other) ])
    ~wrong:(fun () -> Checks.check_recertified [ (e, { other with Certify.ok = not other.Certify.ok }) ]);
  case "corpus: uncertified entry"
    ~right:(fun () -> Checks.check_admission c.Corpus.stats)
    ~wrong:(fun () -> Checks.check_admission { c.Corpus.stats with Admit.uncertified = 1 })

let replay dir =
  let devices = [ Device.make Profile.intel ] in
  let test = (Option.get (Suite.find "MP-CO")).Suite.test in
  let reqs =
    Array.init 8 (fun i ->
        Request.make ~device:(List.hd devices) ~env:(Params.scaled Params.pte_baseline 0.02) ~test ~iterations:1
          ~seed:i ())
  in
  let grid = Grid.make Runner.Rate ~n:(Array.length reqs) ~request:(Array.get reqs) in
  let encode = Array.map (fun r -> Jsonw.to_string (Runner.result_to_json r)) in
  let orig = Filename.concat dir "selftest-store" and copy = Filename.concat dir "selftest-copy" in
  Workloads.remove orig;
  Workloads.remove copy;
  let cold = Store.with_store orig (fun store -> Grid.run (Request.context ~store ()) grid) in
  Sys.mkdir copy 0o755;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".jsonl" || f = "VERSION" then
        let s = read_file (Filename.concat orig f) in
        let s = if f = "VERSION" then s else replace_first s ~sub:"\"iterations\":1" ~by:"\"iterations\":2" in
        write_file (Filename.concat copy f) s)
    (Sys.readdir orig);
  let warm dir = Store.with_store dir (fun store -> Grid.run_stats (Request.context ~store ()) grid) in
  let served, stats = warm orig and altered, _ = warm copy in
  case "replay: store payload altered in a copy"
    ~right:(fun () -> Checks.check_warm ~what:"selftest" ~cold:(encode cold) ~warm:(encode served))
    ~wrong:(fun () -> Checks.check_warm ~what:"selftest" ~cold:(encode cold) ~warm:(encode altered));
  let stats = Option.get stats in
  case "replay: a warm miss"
    ~right:(fun () -> Checks.check_sched ~what:"selftest" stats)
    ~wrong:(fun () ->
      Checks.check_sched ~what:"selftest" { stats with Sched.hits = stats.Sched.hits - 1; misses = 1 });
  let torn = Filename.concat dir "selftest-torn" in
  Workloads.remove torn;
  Sys.mkdir torn 0o755;
  Array.iter
    (fun f ->
      let s = read_file (Filename.concat orig f) in
      write_file (Filename.concat torn f) (if Filename.check_suffix f ".jsonl" then s ^ "{\"k\":" else s))
    (Array.of_list (List.filter (fun f -> f <> "LOCK") (Array.to_list (Sys.readdir orig))));
  case "replay: torn store segment"
    ~right:(fun () -> Checks.check_verify orig)
    ~wrong:(fun () -> Checks.check_verify torn);
  [ orig; copy; torn ]

let run () =
  let dir = "_pipebench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  paper ();
  soundness ();
  corpus ();
  let scratch = replay dir in
  let bad =
    List.fold_left
      (fun bad (name, right, wrong) ->
        let r = right () and w = wrong () in
        let ok = r = [] && w <> [] in
        Printf.printf "%s %s%s\n" (if ok then "ok  " else "FAIL") name
          (match (r, w) with
          | _ :: _, _ -> " (rejected the correct input: " ^ List.hd r ^ ")"
          | [], [] -> " (accepted the wrong input)"
          | [], f :: _ -> " -> " ^ f);
        if ok then bad else bad + 1)
      0 (List.rev !cases)
  in
  List.iter Workloads.remove scratch;
  Printf.printf "%d/%d check cases behave\n" (List.length !cases - bad) (List.length !cases);
  if bad = 0 then 0 else 1
