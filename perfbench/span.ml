(* In-memory layer spans for the traced run.

   Each span is recorded by the benchmark's own code around one call
   into a layer's public function: name (prefixed by the layer), start,
   end, the enclosing span and the operation it belongs to.  The same
   call is also pushed on the program's self-profiler stack
   (Emsc_obs.Prof), so the profiler's frames for the compiler passes
   nest under the benchmark's spans and self times close over the
   whole traced pass.  Spans stay in memory and are written once, at
   exit.  When tracing is off, [run] is a plain call.  Spans are only
   opened from the benchmark's main domain. *)

module J = Emsc_obs.Json

type t = {
  id : int;
  name : string;
  start_s : float;
  end_s : float;
  parent : int;  (** 0 = root *)
  op : int;      (** operation id, shared by the spans of one request *)
}

let on = ref false
let next_id = ref 1
let current = ref 0  (* innermost open span *)
let op_id = ref 0
let recorded : t list ref = ref []

let enabled () = !on
let enable () = on := true
let disable () = on := false
let set_op op = op_id := op

let run name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_s = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        recorded :=
          { id; name; start_s; end_s = Unix.gettimeofday (); parent; op = !op_id }
          :: !recorded)
      (fun () -> Emsc_obs.Prof.probe name f)
  end

let all () = List.rev !recorded

let json_of (s : t) =
  J.Obj
    [ ("id", J.Int s.id); ("name", J.Str s.name);
      ("start_us", J.Float (s.start_s *. 1e6));
      ("end_us", J.Float (s.end_s *. 1e6));
      ("parent", J.Int s.parent); ("op", J.Int s.op) ]

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
    output_string oc "{\"spans\":[\n";
    List.iteri (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (J.to_string (json_of s)))
      (all ());
    output_string oc "\n]}\n")
