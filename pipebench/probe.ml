(* Per-layer probes for the traced run: the benchmark calls each layer's
   public entry points on the workload's own inputs and records time,
   call count and minor words. Every call runs inside a span, so the
   probes show in the trace next to the workload round. *)

module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Params = Mcm_testenv.Params
module Assignment = Mcm_testenv.Assignment
module Kernel = Mcm_gpu.Kernel
module Instance = Mcm_gpu.Instance
module Device = Mcm_gpu.Device
module Litmus = Mcm_litmus.Litmus
module Classify = Mcm_litmus.Classify
module Prng = Mcm_util.Prng

(* [f ()] with its wall time and minor words, inside span [name]. *)
let timed name f =
  Span.with_ name (fun () ->
      let t0 = Unix.gettimeofday () in
      let w0 = Gc.minor_words () in
      let r = f () in
      let w1 = Gc.minor_words () in
      let t1 = Unix.gettimeofday () in
      (r, t1 -. t0, w1 -. w0))

let ratio a b = if b = 0. then 0. else a /. b

(* [k] elements spread evenly over [arr], in order. *)
let sample k arr =
  let n = Array.length arr in
  if n <= k then arr else Array.init k (fun i -> arr.(i * n / k))

(* The campaign layers of testenv and gpu on a sample of the workload's
   cells: the whole campaign, with and without outcome collection, the
   executed share of instances, and the assignment and kernel steps of
   each iteration timed apart. *)
let cells (reqs : Request.t array) =
  let s = sample 48 reqs in
  let campaign ~collect (r : Request.t) =
    Runner.run_campaign ~domains:1 ~collect ~classify:None ~device:r.device ~env:r.env ~test:r.test
      ~iterations:r.iterations ~seed:r.seed ()
  in
  let inst = ref 0 and c_s = ref 0. and c_w = ref 0. and col_w = ref 0. in
  Array.iter
    (fun r ->
      let (res, _), dt, dw = timed "testenv.run_campaign" (fun () -> campaign ~collect:false r) in
      let _, _, dw' = timed "testenv.run_campaign.collect" (fun () -> campaign ~collect:true r) in
      inst := !inst + res.Runner.instances;
      c_s := !c_s +. dt;
      c_w := !c_w +. dw;
      col_w := !col_w +. (dw' -. dw))
    s;
  let executed = ref 0 and skipped = ref 0 in
  Array.iter
    (fun (r : Request.t) ->
      let _, t =
        Span.with_ "testenv.run_campaign.classify" (fun () ->
            Runner.run_campaign ~domains:1 ~classify:(Some (Classify.classifier r.test))
              ~device:r.device ~env:r.env ~test:r.test ~iterations:r.iterations ~seed:r.seed ())
      in
      executed :=
        !executed + t.Runner.t_sequential + t.Runner.t_interleaved + t.Runner.t_weak + t.Runner.t_forbidden;
      skipped := !skipped + t.Runner.t_skipped)
    s;
  (* Assignment and kernel, the two steps of an iteration, on the same
     cells: role starts as the runner draws them, then every instance
     through [Kernel.run_next]. *)
  let a_s = ref 0. and a_w = ref 0. and k_s = ref 0. and k_w = ref 0. and k_n = ref 0 in
  Span.with_ "gpu.run_next" (fun () ->
      Array.iter
        (fun (r : Request.t) ->
          let profile = r.device.Device.profile in
          let roles = Litmus.nthreads r.test in
          let instances = Params.instances_per_iteration r.env ~roles in
          let slice_instrs = Array.map List.length r.test.Litmus.threads in
          let weak =
            Instance.effective_params profile
              ~amplification:(Runner.amplification r.device r.env ~roles)
          in
          let k =
            Kernel.compile ~layout:(Runner.layout_of_env r.env) ~weak ~bugs:(Device.effect r.device)
              ~test:r.test ()
          in
          let ws = Kernel.workspace k in
          for it = 0 to r.iterations - 1 do
            let prng = Prng.create (Prng.mix r.seed it) in
            let t0 = Unix.gettimeofday () in
            let w0 = Gc.minor_words () in
            let starts = Assignment.role_starts ~prng ~profile ~env:r.env ~slice_instrs ~instances in
            let w1 = Gc.minor_words () in
            let t1 = Unix.gettimeofday () in
            Kernel.set_parent ws prng;
            let t2 = Unix.gettimeofday () in
            let w2 = Gc.minor_words () in
            for i = 0 to instances - 1 do
              ignore (Kernel.run_next k ws ~starts:starts.(i))
            done;
            let w3 = Gc.minor_words () in
            let t3 = Unix.gettimeofday () in
            a_s := !a_s +. (t1 -. t0);
            a_w := !a_w +. (w1 -. w0);
            k_s := !k_s +. (t3 -. t2);
            k_w := !k_w +. (w3 -. w2);
            k_n := !k_n + instances
          done)
        s);
  let inst = float_of_int !inst and kn = float_of_int !k_n in
  [
    ("testenv.campaign_ns_per_instance", ratio (!c_s *. 1e9) inst);
    ("testenv.campaign_words_per_instance", ratio !c_w inst);
    ("testenv.collect_words_per_instance", ratio !col_w inst);
    ("testenv.executed_ratio", ratio (float_of_int !executed) (float_of_int (!executed + !skipped)));
    ("testenv.assignment_ns_per_instance", ratio (!a_s *. 1e9) kn);
    ("testenv.assignment_words_per_instance", ratio !a_w kn);
    ("gpu.kernel_ns_per_instance", ratio (!k_s *. 1e9) kn);
    ("gpu.kernel_words_per_instance", ratio !k_w kn);
  ]

(* [Kernel.compile] once per distinct test of the workload. *)
let compile (reqs : Request.t array) =
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun (r : Request.t) ->
        let fresh = not (Hashtbl.mem seen r.test.Litmus.name) in
        Hashtbl.replace seen r.test.Litmus.name ();
        fresh)
      (Array.to_list reqs)
  in
  let _, dt, _ =
    timed "gpu.compile" (fun () ->
        List.iter
          (fun (r : Request.t) ->
            let roles = Litmus.nthreads r.test in
            let weak =
              Instance.effective_params r.device.Device.profile
                ~amplification:(Runner.amplification r.device r.env ~roles)
            in
            ignore (Kernel.compile ~weak ~bugs:(Device.effect r.device) ~test:r.test ()))
          distinct)
  in
  [ ("gpu.compile_us_per_image", ratio (dt *. 1e6) (float_of_int (List.length distinct))) ]

(* Store keys and payload codecs over every cell: (seconds, words) of
   [Request.key], seconds of [Runner.encode] and of [Runner.decode]. *)
let codec collect (reqs : Request.t array) values =
  let kind = Runner.kind collect in
  let _, key_s, key_w =
    timed "testenv.key" (fun () -> Array.iter (fun r -> ignore (Request.key ~kind r)) reqs)
  in
  let json, enc_s, _ = timed "testenv.encode" (fun () -> Array.map (Runner.encode collect) values) in
  let _, dec_s, _ =
    timed "testenv.decode" (fun () ->
        Array.iter
          (fun j -> match Runner.decode collect j with Ok _ -> () | Error e -> failwith e)
          json)
  in
  (key_s, key_w, enc_s, dec_s)

let codec_metrics ~cells (key_s, key_w, enc_s, dec_s) =
  let n = float_of_int cells in
  [
    ("testenv.key_ns_per_cell", ratio (key_s *. 1e9) n);
    ("testenv.key_words_per_cell", ratio key_w n);
    ("testenv.encode_ns_per_cell", ratio (enc_s *. 1e9) n);
    ("testenv.decode_ns_per_cell", ratio (dec_s *. 1e9) n);
  ]

(* The Propagate search over [tests], each under its own model. *)
let search tests =
  let (explored, pruned), dt, _ =
    timed "oracle.search" (fun () ->
        List.fold_left
          (fun (e, p) (t : Litmus.t) ->
            let s = Mcm_oracle.Propagate.stats t.Litmus.model t in
            (e + s.Mcm_oracle.Propagate.explored, p + s.Mcm_oracle.Propagate.pruned))
          (0, 0) tests)
  in
  [
    ("oracle.explored", float_of_int explored);
    ("oracle.pruned", float_of_int pruned);
    ("oracle.search_ns_per_node", ratio (dt *. 1e9) (float_of_int explored));
  ]
