(* The span and counter engine.

   Disabled by default, and every entry point tests one boolean first,
   so instrumented code costs nothing measurable when profiling is off
   (the [wrap]/[wrap2] forms exist so hot call-sites do not even
   allocate a closure).  When enabled, each probe pushes its label on a
   per-domain stack and accumulates (calls, errors, inclusive seconds)
   into a per-domain table keyed by the full label stack — caller
   attribution falls out of the key, and memory is bounded by the
   number of distinct stacks, not by the call count.  With the timeline
   on, the same probe also keeps its completed span (start, duration,
   args, counters, children), from which the Chrome trace and the tree
   are rendered.

   Domain-safe the same way Events is: each domain owns its state
   (registered under a mutex on first probe), writers never share
   cells, and [snapshot]/[chrome_json] merge every domain's data after
   the caller has established a happens-before edge (joined its
   domains). *)

type acc = {
  mutable a_calls : int;
  mutable a_errors : int;
  mutable a_total : float;
}

(* a timeline span; children accumulate in reverse *)
type span = {
  s_name : string;
  mutable s_args : (string * Json.t) list;
  s_start : float;
  mutable s_dur : float;
  mutable s_counters : (string * float) list;
  mutable s_children : span list;
}

type dstate = {
  d_tid : int;                   (* Chrome thread id: domain id + 1 *)
  mutable d_stack : string list; (* open probes, innermost first *)
  mutable d_open : span list;    (* timeline: open spans, innermost first *)
  mutable d_roots : span list;   (* timeline: completed roots, newest first *)
  d_frames : (string list, acc) Hashtbl.t;
  d_counters : (string list * string, float ref) Hashtbl.t;
}

let enabled_flag = ref false
let timeline_flag = ref false
let enabled () = !enabled_flag

let enable ?(timeline = false) () =
  timeline_flag := timeline;
  enabled_flag := true

let disable () = enabled_flag := false

let default_clock = Unix.gettimeofday
let clock = ref default_clock
let set_clock c = clock := c
let use_default_clock () = clock := default_clock

(* registered domain states; [generation] invalidates cached DLS
   states across [reset] so a reset never resurrects old tables *)
let reg_m = Mutex.create ()
let states : dstate list ref = ref []
let generation = ref 0

let reset () =
  Mutex.lock reg_m;
  states := [];
  incr generation;
  Mutex.unlock reg_m

let dls_key : (int * dstate) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some (g, st) when g = !generation -> st
  | _ ->
    let st =
      { d_tid = (Domain.self () :> int) + 1; d_stack = []; d_open = [];
        d_roots = []; d_frames = Hashtbl.create 64;
        d_counters = Hashtbl.create 16 }
    in
    Mutex.lock reg_m;
    let g = !generation in
    states := st :: !states;
    Mutex.unlock reg_m;
    cell := Some (g, st);
    st

let record st path dt ~error =
  let e = if error then 1 else 0 in
  match Hashtbl.find_opt st.d_frames path with
  | Some a ->
    a.a_calls <- a.a_calls + 1;
    a.a_errors <- a.a_errors + e;
    a.a_total <- a.a_total +. dt
  | None ->
    Hashtbl.add st.d_frames path { a_calls = 1; a_errors = e; a_total = dt }

let close_span st saved_open s ~dur ~error =
  s.s_dur <- dur;
  Option.iter (fun msg -> s.s_args <- s.s_args @ [ ("error", Json.Str msg) ])
    error;
  st.d_open <- saved_open;
  match saved_open with
  | parent :: _ -> parent.s_children <- s :: parent.s_children
  | [] -> st.d_roots <- s :: st.d_roots

let probe ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let saved = st.d_stack and saved_open = st.d_open in
    let path = name :: saved in
    st.d_stack <- path;
    let t0 = !clock () in
    let span =
      if not !timeline_flag then None
      else begin
        let s =
          { s_name = name; s_args = args; s_start = t0; s_dur = 0.0;
            s_counters = []; s_children = [] }
        in
        st.d_open <- s :: saved_open;
        Some s
      end
    in
    let pop error =
      let dt = !clock () -. t0 in
      st.d_stack <- saved;
      record st path dt ~error:(error <> None);
      Option.iter (close_span st saved_open ~dur:dt ~error) span
    in
    match f () with
    | r -> pop None; r
    | exception e ->
      pop (Some (Printexc.to_string e));
      raise e
  end

(* No-closure wrappers for hot call-sites: fully applied, so the
   disabled path is one flag test and a direct call — no allocation. *)

let wrap name f x = if not !enabled_flag then f x else probe name (fun () -> f x)

let wrap2 name f x y =
  if not !enabled_flag then f x y else probe name (fun () -> f x y)

let bump_assoc l name v =
  match List.assoc_opt name l with
  | Some cur -> (name, cur +. v) :: List.remove_assoc name l
  | None -> (name, v) :: l

let add name v =
  if !enabled_flag then begin
    let st = state () in
    let key = (st.d_stack, name) in
    (match Hashtbl.find_opt st.d_counters key with
     | Some r -> r := !r +. v
     | None -> Hashtbl.add st.d_counters key (ref v));
    match st.d_open with
    | s :: _ -> s.s_counters <- bump_assoc s.s_counters name v
    | [] -> ()
  end

(* --- snapshots ---------------------------------------------------------- *)

type frame = {
  f_stack : string list; (* outermost first; [] holds counters outside any probe *)
  f_calls : int;
  f_errors : int;
  f_total_s : float;
  f_self_s : float;      (* total minus probed children, clamped at 0 *)
  f_counters : (string * float) list;
}

type profile = frame list

let registered () =
  Mutex.lock reg_m;
  let sts = !states in
  Mutex.unlock reg_m;
  sts

let snapshot () =
  (* merge per-domain tables; keys are innermost-first label stacks *)
  let totals : (string list, acc) Hashtbl.t = Hashtbl.create 64 in
  let counters : (string list * string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun st ->
    Hashtbl.iter (fun path a ->
      match Hashtbl.find_opt totals path with
      | Some m ->
        m.a_calls <- m.a_calls + a.a_calls;
        m.a_errors <- m.a_errors + a.a_errors;
        m.a_total <- m.a_total +. a.a_total
      | None ->
        Hashtbl.add totals path
          { a_calls = a.a_calls; a_errors = a.a_errors; a_total = a.a_total })
      st.d_frames;
    Hashtbl.iter (fun key r ->
      let cur = try Hashtbl.find counters key with Not_found -> 0.0 in
      Hashtbl.replace counters key (cur +. !r))
      st.d_counters)
    (registered ());
  (* counters recorded under a stack that never completed a probe, or
     outside any probe (the [] stack), still need a frame to hang off *)
  Hashtbl.iter (fun (path, _) _ ->
    if not (Hashtbl.mem totals path) then
      Hashtbl.add totals path { a_calls = 0; a_errors = 0; a_total = 0.0 })
    counters;
  (* self = total - sum of direct probed children *)
  let selfs : (string list, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun path a -> Hashtbl.replace selfs path a.a_total) totals;
  Hashtbl.iter (fun path a ->
    match path with
    | _ :: (_ :: _ as parent) when Hashtbl.mem totals parent ->
      Hashtbl.replace selfs parent
        (Hashtbl.find selfs parent -. a.a_total)
    | _ -> ())
    totals;
  let frames =
    Hashtbl.fold (fun path a fs ->
      let cs =
        Hashtbl.fold (fun (p, name) v cs ->
          if p = path then (name, v) :: cs else cs)
          counters []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      { f_stack = List.rev path;
        f_calls = a.a_calls;
        f_errors = a.a_errors;
        f_total_s = a.a_total;
        f_self_s = Float.max 0.0 (Hashtbl.find selfs path);
        f_counters = cs }
      :: fs)
      totals []
  in
  List.sort (fun a b -> compare a.f_stack b.f_stack) frames

let attributed_s prof =
  List.fold_left (fun acc f ->
    match f.f_stack with [ _ ] -> acc +. f.f_total_s | _ -> acc)
    0.0 prof

(* --- per-pass aggregation (leaf label, across stacks) ------------------- *)

type pass = {
  p_name : string;
  p_calls : int;
  p_errors : int;
  p_total_s : float;
  p_self_s : float;
  p_counters : (string * float) list;
}

let passes prof =
  let tbl : (string, pass) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun f ->
    match List.rev f.f_stack with
    | [] -> ()  (* counters outside any probe have no label *)
    | name :: _ ->
      let cur =
        match Hashtbl.find_opt tbl name with
        | Some p -> p
        | None ->
          { p_name = name; p_calls = 0; p_errors = 0; p_total_s = 0.0;
            p_self_s = 0.0; p_counters = [] }
      in
      Hashtbl.replace tbl name
        { cur with
          p_calls = cur.p_calls + f.f_calls;
          p_errors = cur.p_errors + f.f_errors;
          p_total_s = cur.p_total_s +. f.f_total_s;
          p_self_s = cur.p_self_s +. f.f_self_s;
          p_counters =
            List.fold_left (fun l (k, v) -> bump_assoc l k v)
              cur.p_counters f.f_counters })
    prof;
  Hashtbl.fold (fun _ p acc ->
    { p with
      p_counters =
        List.sort (fun (a, _) (b, _) -> String.compare a b) p.p_counters }
    :: acc)
    tbl []
  |> List.sort (fun a b ->
       match compare b.p_self_s a.p_self_s with
       | 0 -> String.compare a.p_name b.p_name
       | c -> c)

let top_self ?(k = 15) prof =
  let ps = passes prof in
  List.filteri (fun i _ -> i < k) ps

(* --- rendering ---------------------------------------------------------- *)

(* collapsed-stack format (Brendan Gregg flamegraph.pl / speedscope /
   inferno): one "frame;frame;frame <value>" line per stack, value =
   self time in integer microseconds.  Sorted by stack so a fixed
   workload under a fixed clock renders byte-identically. *)
let collapsed prof =
  let b = Buffer.create 1024 in
  List.iter (fun f ->
    if f.f_stack <> [] then begin
      Buffer.add_string b (String.concat ";" f.f_stack);
      Buffer.add_char b ' ';
      Buffer.add_string b
        (string_of_int (int_of_float (f.f_self_s *. 1e6 +. 0.5)));
      Buffer.add_char b '\n'
    end)
    prof;
  Buffer.contents b

let write_collapsed path prof =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (collapsed prof))

let pp_top ?k fmt prof =
  let ps = top_self ?k prof in
  Format.fprintf fmt "%12s %12s %10s  %s@." "self ms" "total ms" "calls"
    "hot path";
  List.iter (fun p ->
    Format.fprintf fmt "%12.3f %12.3f %10d  %s@." (p.p_self_s *. 1e3)
      (p.p_total_s *. 1e3) p.p_calls p.p_name)
    ps;
  Format.fprintf fmt "%12.3f ms attributed across %d stack(s)@."
    (attributed_s prof *. 1e3)
    (List.length prof)

let counters_json cs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) cs)

let with_counters fields cs =
  if cs = [] then fields else fields @ [ ("counters", counters_json cs) ]

let pass_json p =
  Json.Obj
    [ ("calls", Json.Int p.p_calls);
      ("total_ms", Json.Float (p.p_total_s *. 1e3));
      ("self_ms", Json.Float (p.p_self_s *. 1e3)) ]

let json ?wall_ms prof =
  let ps =
    List.sort (fun a b -> String.compare a.p_name b.p_name) (passes prof)
  in
  Json.Obj
    ([ ("schema", Json.Str "emsc-compile-profile/1");
       ("attributed_ms", Json.Float (attributed_s prof *. 1e3)) ]
     @ (match wall_ms with
        | Some w -> [ ("wall_ms", Json.Float w) ]
        | None -> [])
     @ [ ("passes", Json.Obj (List.map (fun p -> (p.p_name, pass_json p)) ps));
         ( "stacks",
           Json.List
             (List.map (fun f ->
                Json.Obj
                  (with_counters
                     [ ("stack", Json.Str (String.concat ";" f.f_stack));
                       ("calls", Json.Int f.f_calls);
                       ("total_ms", Json.Float (f.f_total_s *. 1e3));
                       ("self_ms", Json.Float (f.f_self_s *. 1e3)) ]
                     f.f_counters))
                prof) ) ])

let pass_timings prof =
  Json.List
    (List.map (fun p ->
       Json.Obj
         (with_counters
            [ ("name", Json.Str p.p_name);
              ("calls", Json.Int p.p_calls);
              ("errors", Json.Int p.p_errors);
              ("total_ms", Json.Float (p.p_total_s *. 1e3)) ]
            p.p_counters))
       (List.stable_sort (fun a b -> compare b.p_total_s a.p_total_s)
          (passes prof)))

(* --- the timeline view ---------------------------------------------------- *)

(* completed root spans of every domain, in start order (concurrent
   domains finish in nondeterministic order), each with its tid *)
let roots () =
  List.concat_map (fun st -> List.rev_map (fun s -> (st.d_tid, s)) st.d_roots)
    (registered ())
  |> List.stable_sort (fun (_, a) (_, b) -> compare a.s_start b.s_start)

let sorted_counters s =
  List.sort (fun (a, _) (b, _) -> String.compare a b) s.s_counters

let pp_tree fmt () =
  let rec go indent s =
    Format.fprintf fmt "%s%-*s %8.3f ms" indent
      (max 1 (40 - String.length indent))
      s.s_name (s.s_dur *. 1e3);
    List.iter (fun (k, v) -> Format.fprintf fmt "  %s=%.0f" k v)
      (sorted_counters s);
    Format.pp_print_newline fmt ();
    List.iter (go (indent ^ "  ")) (List.rev s.s_children)
  in
  List.iter (fun (_, s) -> go "" s) (roots ());
  match List.find_opt (fun f -> f.f_stack = []) (snapshot ()) with
  | Some f ->
    Format.fprintf fmt "(outside any span)";
    List.iter (fun (k, v) -> Format.fprintf fmt "  %s=%.0f" k v) f.f_counters;
    Format.pp_print_newline fmt ()
  | None -> ()

let chrome_json () =
  let events = ref [] in
  let rec emit tid s =
    let args =
      s.s_args @ List.map (fun (k, v) -> (k, Json.Float v)) (sorted_counters s)
    in
    events :=
      Json.Obj
        ([ ("name", Json.Str s.s_name);
           ("cat", Json.Str "emsc");
           ("ph", Json.Str "X");
           ("ts", Json.Float (s.s_start *. 1e6));
           ("dur", Json.Float (s.s_dur *. 1e6));
           ("pid", Json.Int 1);
           ("tid", Json.Int tid) ]
         @ if args = [] then [] else [ ("args", Json.Obj args) ])
      :: !events;
    List.iter (emit tid) (List.rev s.s_children)
  in
  List.iter (fun (tid, s) -> emit tid s) (roots ());
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.Str "ms") ]

(* force-enable from the environment, so an unmodified binary (the
   tier-1 test runner, a CI compile) can run profiled for the overhead
   budget check *)
let () =
  match Sys.getenv_opt "EMSC_PROF" with
  | Some ("" | "0" | "false") | None -> ()
  | Some _ -> enabled_flag := true
