(* Spans recorded by the benchmark around its own calls into each layer.

   A span has a name, a start, an end, the id of the span that was open
   when it began (its parent, 0 for none) and the minor words allocated
   while it was open. Spans are kept in memory and written out once, as
   Chrome trace-event JSON (opens in Perfetto and about:tracing), when
   the run ends. With recording off, [with_ name f] is just [f ()]. *)

module Jsonw = Mcm_util.Jsonw

type t = {
  name : string;
  id : int;
  parent : int;
  start_s : float;
  end_s : float;
  words : float;
}

let recording = ref false
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 1
let origin = Unix.gettimeofday ()

let with_ name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      finished :=
        { name; id; parent; start_s = t0; end_s = t1; words = Gc.minor_words () -. w0 }
        :: !finished
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !finished

(* Totals over every span of one name: seconds, calls, minor words. *)
let total name =
  List.fold_left
    (fun (s, n, w) sp ->
      if sp.name = name then (s +. (sp.end_s -. sp.start_s), n + 1, w +. sp.words) else (s, n, w))
    (0., 0, 0.) !finished

let seconds name =
  let s, _, _ = total name in
  s

let mean name =
  let s, n, _ = total name in
  if n = 0 then 0. else s /. float_of_int n

(* Chrome trace-event JSON: one complete ("X") event per span,
   timestamps in microseconds since the recorder started. *)
let to_chrome ~workload ~provenance =
  let us s = Jsonw.Float (Float.round ((s -. origin) *. 1e7) /. 10.) in
  let event sp =
    Jsonw.Obj
      [
        ("name", Jsonw.String sp.name);
        ("cat", Jsonw.String (List.hd (String.split_on_char '.' sp.name)));
        ("ph", Jsonw.String "X");
        ("ts", us sp.start_s);
        ("dur", Jsonw.Float (Float.round ((sp.end_s -. sp.start_s) *. 1e7) /. 10.));
        ("pid", Jsonw.Int 1);
        ("tid", Jsonw.Int 1);
        ( "args",
          Jsonw.Obj
            [
              ("id", Jsonw.Int sp.id);
              ("parent", Jsonw.Int sp.parent);
              ("workload", Jsonw.String workload);
              ("minorWords", Jsonw.Float sp.words);
            ] );
      ]
  in
  Jsonw.Obj
    [
      ("traceEvents", Jsonw.List (List.map event (all ())));
      ("displayTimeUnit", Jsonw.String "ms");
      ("otherData", provenance);
    ]
