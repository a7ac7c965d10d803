(* Output checks of the four workloads. Each check returns the list of
   its failures, empty when the output is correct. The checks recompute
   what they can independently of the code under test, and otherwise
   assert properties every correct output has. [selftest.ml] feeds each
   of them a known-wrong input. *)

module Tuning = Mcm_harness.Tuning
module Experiments = Mcm_harness.Experiments
module Runner = Mcm_testenv.Runner
module Suite = Mcm_core.Suite
module Mutator = Mcm_core.Mutator
module Device = Mcm_gpu.Device
module Profile = Mcm_gpu.Profile
module Library = Mcm_litmus.Library
module Litmus = Mcm_litmus.Litmus
module Certify = Mcm_oracle.Certify
module Soundness = Mcm_oracle.Soundness
module Outcome = Mcm_oracle.Outcome
module Corpus = Mcm_corpus.Corpus
module Admit = Mcm_corpus.Admit
module Generate = Mcm_corpus.Generate
module Key = Mcm_campaign.Key
module Sched = Mcm_campaign.Sched
module Store = Mcm_campaign.Store

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt
let close_enough a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

(* ------------------------------------------------------------------ *)
(* paper                                                                *)

(* Every Fig. 5 point: (mutator filter, device filter, category). *)
let fig5_points =
  let mutators = None :: List.map Option.some Mutator.[ Reversing_po_loc; Weakening_po_loc; Weakening_sw ] in
  let devices = None :: List.map (fun p -> Some p.Profile.short_name) Profile.all in
  List.concat_map
    (fun m -> List.concat_map (fun d -> List.map (fun c -> (m, d, c)) Tuning.all_categories) devices)
    mutators

let point_label (m, d, c) =
  Printf.sprintf "%s/%s/%s"
    (match m with None -> "all" | Some m -> Mutator.kind_name m)
    (Option.value d ~default:"avg") (Tuning.category_name c)

(* What the figure code reports: (label, mutation score, death rate). *)
let fig5_reported runs =
  List.map
    (fun ((m, d, c) as p) ->
      ( point_label p,
        Experiments.Fig5.mutation_score runs ?mutator:m ?device:d c,
        Experiments.Fig5.avg_death_rate runs ?mutator:m ?device:d c ))
    fig5_points

(* The same figures recomputed from the raw run list: a mutant counts as
   killed on a device when some environment of the category killed it,
   and its rate is its best rate over those environments. *)
let fig5_recomputed runs =
  let best = Hashtbl.create 1024 in
  List.iter
    (fun (r : Tuning.run) ->
      let k = (r.Tuning.category, Device.name r.Tuning.device, r.Tuning.test_name) in
      let killed, rate = Option.value (Hashtbl.find_opt best k) ~default:(false, 0.) in
      Hashtbl.replace best k
        (killed || r.Tuning.result.Runner.kills > 0, Float.max rate r.Tuning.result.Runner.rate))
    runs;
  let per_device m d c =
    let names =
      List.filter_map
        (fun (e : Suite.entry) ->
          if m = None || m = Some e.Suite.mutator then Some e.Suite.test.Litmus.name else None)
        (Suite.mutants ())
    in
    let n = float_of_int (List.length names) in
    let killed, rate =
      List.fold_left
        (fun (k, r) name ->
          let kd, rd = Option.value (Hashtbl.find_opt best (c, d, name)) ~default:(false, 0.) in
          ((if kd then k +. 1. else k), r +. rd))
        (0., 0.) names
    in
    if n = 0. then (0., 0.) else (killed /. n, rate /. n)
  in
  List.map
    (fun ((m, d, c) as p) ->
      let score, rate =
        match d with
        | Some d -> per_device m d c
        | None ->
            let ds = List.map (fun p -> p.Profile.short_name) Profile.all in
            let s, r =
              List.fold_left
                (fun (s, r) d ->
                  let s', r' = per_device m d c in
                  (s +. s', r +. r'))
                (0., 0.) ds
            in
            let n = float_of_int (List.length ds) in
            (s /. n, r /. n)
      in
      (point_label p, score, rate))
    fig5_points

let check_fig5 runs reported =
  List.concat
    (List.map2
       (fun (label, s, r) (_, s', r') ->
         (if close_enough s s' then []
          else fail "fig5 %s: mutation score %.17g, recomputed %.17g" label s s')
         @
         if close_enough r r' then []
         else fail "fig5 %s: death rate %.17g, recomputed %.17g" label r r')
       reported (fig5_recomputed runs))

(* Fig. 6 series, one per (category, target), in budget order. *)
let fig6_series runs =
  List.concat_map
    (fun c ->
      List.map
        (fun target ->
          ( (c, target),
            List.map
              (fun budget -> Experiments.Fig6.score runs c ~target ~budget)
              Experiments.Fig6.budgets ))
        Experiments.Fig6.targets)
    [ Tuning.Site; Tuning.Pte ]

let check_fig6 series =
  let name (c, t) = Printf.sprintf "%s@%g" (Tuning.category_name c) t in
  let rec monotone = function a :: (b :: _ as rest) -> a <= b && monotone rest | _ -> true in
  List.concat_map
    (fun (k, s) -> if monotone s then [] else fail "fig6 %s is not non-decreasing in budget" (name k))
    series
  @ List.concat_map
      (fun c ->
        match (List.assoc_opt (c, 0.95) series, List.assoc_opt (c, 0.99999) series) with
        | Some lo, Some hi ->
            if List.for_all2 (fun a b -> b <= a) lo hi then []
            else fail "fig6 %s: the 99.999%% series exceeds the 95%% series" (Tuning.category_name c)
        | _ -> fail "fig6 %s: series missing" (Tuning.category_name c))
      [ Tuning.Site; Tuning.Pte ]

let check_runs runs =
  List.concat_map
    (fun (r : Tuning.run) ->
      let res = r.Tuning.result in
      if res.Runner.kills <= res.Runner.instances && res.Runner.kills >= 0 then []
      else fail "run %s: %d kills > %d instances" r.Tuning.test_name res.Runner.kills res.Runner.instances)
    runs

let check_same_runs (a : Tuning.run list) (b : Tuning.run list) =
  if a = b then [] else fail "sweep: the two run lists differ"

let check_table4 ~n_envs rows =
  (if List.length rows = List.length Experiments.Table4.cases then []
   else fail "table4: %d rows" (List.length rows))
  @ List.concat_map
      (fun (r : Experiments.Table4.row) ->
        let open Experiments.Table4 in
        (if Float.abs r.pcc <= 1. then [] else fail "table4 %s: |pcc| = %g > 1" r.vendor r.pcc)
        @ (if r.p_value >= 0. && r.p_value <= 1. then []
           else fail "table4 %s: p = %g outside [0,1]" r.vendor r.p_value)
        @ if r.n_envs = n_envs then [] else fail "table4 %s: n_envs %d, requested %d" r.vendor r.n_envs n_envs)
      rows

(* Every Alg. 1 choice names an environment and a device count in range. *)
let check_cts ~n_envs ~n_devices choices =
  List.concat_map
    (function
      | None -> []
      | Some (c : Mcm_core.Merge.choice) ->
          let open Mcm_core.Merge in
          if c.env >= 0 && c.env < n_envs && c.devices_at_ceiling <= n_devices then []
          else fail "cts: choice of env %d with %d devices out of range" c.env c.devices_at_ceiling)
    choices

(* ------------------------------------------------------------------ *)
(* soundness                                                            *)

let check_certify ~suite ~library =
  let expect what (r : Certify.report) n =
    if r.Certify.failures = 0 && List.length r.Certify.verdicts = n then []
    else
      fail "certify %s: %d/%d ok (expected %d/%d)" what
        (List.length r.Certify.verdicts - r.Certify.failures)
        (List.length r.Certify.verdicts) n n
  in
  expect "suite" suite (List.length (Suite.all ())) @ expect "library" library (List.length Library.all)

let check_soundness ~points (r : Soundness.report) =
  (if r.Soundness.total_violations = 0 then []
   else fail "soundness: %d violation(s) on correct devices" r.Soundness.total_violations)
  @
  if List.length r.Soundness.points = points then []
  else fail "soundness: %d grid points, expected %d" (List.length r.Soundness.points) points

(* [pairs] holds (test name, Propagate set, Enumerate set). *)
let check_allowed pairs =
  List.concat_map
    (fun (name, p, e) ->
      if Outcome.equal p e then [] else fail "allowed set of %s differs between engines" name)
    pairs

(* ------------------------------------------------------------------ *)
(* corpus                                                               *)

let classics = Library.[ mp; lb; sb; s; r; two_plus_two_w ]

let check_classics (entries : Admit.entry list) =
  List.concat_map
    (fun classic ->
      let sk = Generate.to_string (Generate.canonical (Generate.of_threads classic.Litmus.threads)) in
      if List.exists (fun (e : Admit.entry) -> e.skeleton = sk && e.polarity = Admit.Mutant_weak) entries
      then []
      else fail "corpus: classic %s (%s) not admitted as a weak mutant" classic.Litmus.name sk)
    classics

(* [rechecked] holds (entry, verdict from the other engine). *)
let check_recertified rechecked =
  List.concat_map
    (fun ((e : Admit.entry), (v : Certify.verdict)) ->
      if v = e.verdict then []
      else fail "corpus: %s certified differently by the other engine" e.test.Litmus.name)
    rechecked

let check_roundtrip c reparsed =
  match reparsed with
  | Error msg -> fail "corpus: of_string (to_string c) failed: %s" msg
  | Ok c' ->
      if Key.equal (Corpus.key c) (Corpus.key c') then []
      else fail "corpus: key changed over print/parse"

let check_admission (s : Admit.stats) =
  if s.Admit.uncertified = 0 && s.Admit.disagreements = 0 then []
  else fail "corpus: %d uncertified, %d disagreements" s.Admit.uncertified s.Admit.disagreements

(* ------------------------------------------------------------------ *)
(* replay                                                               *)

(* [cold] and [warm] hold each cell's encoded payload, in grid order. *)
let check_warm ~what ~cold ~warm =
  if Array.length cold <> Array.length warm then
    fail "replay %s: %d warm cells, %d cold" what (Array.length warm) (Array.length cold)
  else
    List.concat
      (List.init (Array.length cold) (fun i ->
           if String.equal cold.(i) warm.(i) then [] else fail "replay %s: cell %d differs warm" what i))

let check_sched ~what (s : Sched.stats) =
  if s.Sched.hits = s.Sched.total && s.Sched.misses = 0 && s.Sched.decode_failures = 0 then []
  else
    fail "replay %s: %d hits, %d misses, %d decode failures of %d cells" what s.Sched.hits
      s.Sched.misses s.Sched.decode_failures s.Sched.total

let check_verify dir =
  match Store.verify dir with
  | Error msg -> fail "replay: store verify: %s" msg
  | Ok r ->
      if Store.verify_ok r then []
      else fail "replay: store verify: %s" (Format.asprintf "%a" Store.pp_verify r)
