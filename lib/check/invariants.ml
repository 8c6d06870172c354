open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir
open Emsc_codegen
open Emsc_core
open Emsc_machine

type violation = {
  buffer : string;
  invariant : string;
  detail : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s: %s" v.buffer v.invariant v.detail

exception Movement_stmt_call

(* concrete interpretation of a movement block: the list of executed
   copies as ((dst array, dst indices), (src array, src indices)) *)
let collect_copies ~env stms =
  let overlay : (string, Zint.t) Hashtbl.t = Hashtbl.create 16 in
  let lookup n =
    match Hashtbl.find_opt overlay n with Some v -> v | None -> env n
  in
  let eval_ref (r : Ast.ref_expr) =
    ( r.Ast.array,
      Array.map (fun e -> Zint.to_int_exn (Ast.eval lookup e)) r.Ast.indices )
  in
  let copies = ref [] in
  let rec go = function
    | Ast.Loop l ->
      let lb = Ast.eval lookup l.Ast.lb and ub = Ast.eval lookup l.Ast.ub in
      let saved = Hashtbl.find_opt overlay l.Ast.var in
      let v = ref lb in
      while Zint.compare !v ub <= 0 do
        Hashtbl.replace overlay l.Ast.var !v;
        List.iter go l.Ast.body;
        v := Zint.add !v l.Ast.step
      done;
      (match saved with
       | Some v -> Hashtbl.replace overlay l.Ast.var v
       | None -> Hashtbl.remove overlay l.Ast.var)
    | Ast.Guard (conds, body) ->
      if
        List.for_all (fun c -> not (Zint.is_negative (Ast.eval lookup c)))
          conds
      then List.iter go body
    | Ast.Copy { dst; src } -> copies := (eval_ref dst, eval_ref src) :: !copies
    | Ast.Sync | Ast.Fence | Ast.Comment _ -> ()
    | Ast.Stmt_call _ -> raise Movement_stmt_call
  in
  List.iter go stms;
  List.rev !copies

(* data spaces live in (params ++ array dims); fix the leading
   parameter dimensions under the valuation *)
let instantiate_union prog ~env us =
  let np = Prog.nparams prog in
  let values = Array.map env prog.Prog.params in
  let fix_piece p =
    let p = ref p in
    for k = 0 to np - 1 do
      (* parameters are the leading dims; each fix shifts the rest down,
         so the next parameter is again dimension 0 *)
      p := Poly.fix_dim !p 0 values.(k)
    done;
    !p
  in
  Uset.of_pieces ~dim:(Uset.dim us - np) (List.map fix_piece (Uset.pieces us))

let point_of idx = Vec.of_ints (Array.to_list idx)

let idx_str idx =
  "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int idx)) ^ "]"

(* concrete global index of an access at one statement instance *)
let global_index ~np ~env prog (s : Prog.stmt) (a : Prog.access) iters =
  Array.map (fun row ->
    let acc = ref row.(s.Prog.depth + np) in
    Array.iteri (fun i v -> acc := Zint.add !acc (Zint.mul row.(i) v)) iters;
    for k = 0 to np - 1 do
      acc := Zint.add !acc (Zint.mul row.(s.Prog.depth + k)
                              (env prog.Prog.params.(k)))
    done;
    Zint.to_int_exn !acc)
    a.Prog.map

let check ?capacity_words ?hierarchy ?(double_buffer = false)
    ?(live_out = fun _ -> true) ?(optimized_movement = false) ~env
    (plan : Plan.t) =
  let prog = plan.Plan.prog in
  let np = Prog.nparams prog in
  let violations = ref [] in
  let report ~buffer ~invariant detail =
    violations := { buffer; invariant; detail } :: !violations
  in
  let sizes_of buffer =
    match
      Array.map (fun e -> Zint.to_int_exn (Ast.eval env e))
        (Alloc.size_exprs buffer)
    with
    | s -> Some s
    | exception _ -> None
  in
  let buffer_sizes =
    List.filter_map (fun (b : Plan.buffered) ->
      match sizes_of b.Plan.buffer with
      | Some s -> Some (b.Plan.buffer.Alloc.local_name, s)
      | None ->
        report ~buffer:b.Plan.buffer.Alloc.local_name ~invariant:"sizes"
          "buffer sizes did not evaluate to integers";
        None)
      plan.Plan.buffered
  in
  let in_bounds idx sizes =
    Array.length idx = Array.length sizes
    && Array.for_all2 (fun i n -> i >= 0 && i < n) idx sizes
  in
  (* one walk over the dynamic instances: check every rewritten access
     stays inside its buffer, and record which global elements each
     buffer actually receives via rewritten writes (for the move-out
     safety check below) *)
  let written : (string, (int list, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let written_tbl local =
    match Hashtbl.find_opt written local with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 64 in
      Hashtbl.replace written local t;
      t
  in
  (match Reference.instances prog ~param_env:env with
   | exception _ ->
     report ~buffer:"<plan>" ~invariant:"instances"
       "could not enumerate statement instances"
   | insts ->
     List.iter (fun ((s : Prog.stmt), iters) ->
       let lookup n =
         let rec find i =
           if i >= s.Prog.depth then env n
           else if s.Prog.iter_names.(i) = n then iters.(i)
           else find (i + 1)
         in
         find 0
       in
       List.iter (fun (a : Prog.access) ->
         match Plan.local_ref plan s a with
         | None -> ()
         | Some r ->
           (match
              Array.map (fun e -> Zint.to_int_exn (Ast.eval lookup e))
                r.Ast.indices
            with
            | exception _ ->
              report ~buffer:r.Ast.array ~invariant:"rewrite-bounds"
                (Printf.sprintf "%s: rewritten index failed to evaluate"
                   s.Prog.name)
            | idx ->
              (match List.assoc_opt r.Ast.array buffer_sizes with
               | None ->
                 report ~buffer:r.Ast.array ~invariant:"rewrite-bounds"
                   "rewritten access targets an unknown buffer"
               | Some sizes ->
                 if not (in_bounds idx sizes) then
                   report ~buffer:r.Ast.array ~invariant:"rewrite-bounds"
                     (Printf.sprintf
                        "%s at %s maps %s%s outside buffer size %s"
                        s.Prog.name
                        (idx_str (Array.map Zint.to_int_exn iters))
                        a.Prog.array
                        (idx_str (global_index ~np ~env prog s a iters))
                        (idx_str sizes));
                 if a.Prog.kind = Prog.Write then
                   Hashtbl.replace (written_tbl r.Ast.array)
                     (Array.to_list
                        (global_index ~np ~env prog s a iters))
                     ())))
         (Prog.accesses s))
       insts);
  let check_buffer (b : Plan.buffered) =
    let buf = b.Plan.buffer in
    let name = buf.Alloc.local_name in
    let report ~invariant detail = report ~buffer:name ~invariant detail in
    match
      (collect_copies ~env b.Plan.move_in, collect_copies ~env b.Plan.move_out)
    with
    | exception Movement_stmt_call ->
      report ~invariant:"movement-shape" "movement code contains a Stmt_call"
    | exception e ->
      report ~invariant:"movement-eval"
        ("movement code failed to evaluate: " ^ Printexc.to_string e)
    | move_in, move_out ->
      let sizes = List.assoc_opt name buffer_sizes in
      (* a movement copy pairs the buffer with its global array; returns
         the global-side index *)
      let split ~dir ((dst_a, dst_i), (src_a, src_i)) =
        let global, local, ok =
          match dir with
          | `In -> (src_i, dst_i, dst_a = name && src_a = buf.Alloc.array)
          | `Out -> (dst_i, src_i, src_a = name && dst_a = buf.Alloc.array)
        in
        if not ok then
          report ~invariant:"movement-shape"
            (Printf.sprintf "copy between %s and %s (expected %s and %s)"
               dst_a src_a name buf.Alloc.array);
        (match sizes with
         | Some sizes when not (in_bounds local sizes) ->
           report ~invariant:"local-bounds"
             (Printf.sprintf "local index %s outside size %s" (idx_str local)
                (idx_str sizes))
         | _ -> ());
        global
      in
      let distinct ~what globals =
        let seen = Hashtbl.create 64 in
        List.iter (fun g ->
          let key = Array.to_list g in
          if Hashtbl.mem seen key then
            report ~invariant:"single-transfer"
              (Printf.sprintf "%s touches global %s%s twice" what
                 buf.Alloc.array (idx_str g))
          else Hashtbl.add seen key ())
          globals;
        seen
      in
      let reads = instantiate_union prog ~env
          (Dataspaces.reads_union prog buf.Alloc.partition)
      and writes = instantiate_union prog ~env
          (Dataspaces.writes_union prog buf.Alloc.partition)
      in
      (* inter-tile reuse: the delta/resident split must partition the
         per-block footprint exactly — every integer point, symbolic in
         the tile origins — and the delta move-out must stay inside the
         write footprint.  At the valuation (origins at their lower
         bound: a chain's FIRST block) move-in takes the full path but
         move-out takes the delta path whenever the chain has more than
         one block, so the move-out cover check below compares against
         the delta set instead of the whole write space. *)
      let reuse_out =
        match b.Plan.reuse with
        | None -> None
        | Some r ->
          if
            not
              (Uset.equal_set
                 (Uset.union r.Plan.r_delta_in r.Plan.r_resident)
                 r.Plan.r_full_in)
          then
            report ~invariant:"reuse-partition"
              "delta move-in U resident differs from the full per-block \
               footprint";
          if
            not
              (Uset.equal_set
                 (Uset.union r.Plan.r_delta_out r.Plan.r_full_out)
                 r.Plan.r_full_out)
          then
            report ~invariant:"reuse-partition"
              "delta move-out leaves the write footprint";
          if r.Plan.r_lb <> r.Plan.r_last then
            Some (instantiate_union prog ~env r.Plan.r_delta_out)
          else None
      in
      let in_globals = List.map (split ~dir:`In) move_in in
      let in_set = distinct ~what:"move-in" in_globals in
      (* move-in never exceeds the partition's data spaces *)
      let footprint = Uset.union reads writes in
      List.iter (fun g ->
        if not (Uset.contains_point footprint (point_of g)) then
          report ~invariant:"movement-subset"
            (Printf.sprintf "move-in copies %s%s outside the partition's \
                             data spaces"
               buf.Alloc.array (idx_str g)))
        in_globals;
      (* every read element is staged (optimized movement may satisfy
         some reads from local writes instead) *)
      if not optimized_movement then begin
        let staged_reads =
          List.length
            (List.filter (fun g -> Uset.contains_point reads (point_of g))
               in_globals)
        in
        match Count.count_uset reads with
        | Count.Exact n ->
          let expected = Zint.to_int_exn n in
          if staged_reads <> expected then
            report ~invariant:"movement-cover"
              (Printf.sprintf
                 "move-in stages %d of the %d read elements" staged_reads
                 expected)
        | Count.More_than _ | Count.Unbounded -> ()
      end;
      let out_globals = List.map (split ~dir:`Out) move_out in
      ignore (distinct ~what:"move-out" out_globals);
      List.iter (fun g ->
        if not (Uset.contains_point writes (point_of g)) then
          report ~invariant:"movement-subset"
            (Printf.sprintf "move-out writes %s%s outside the write data \
                             spaces"
               buf.Alloc.array (idx_str g)))
        out_globals;
      if live_out buf.Alloc.array then begin
        if not optimized_movement then begin
          let expected_set, what =
            match reuse_out with
            | Some delta -> (delta, "delta move-out set")
            | None -> (writes, "write data space")
          in
          match Count.count_uset expected_set with
          | Count.Exact n ->
            let expected = Zint.to_int_exn n in
            if List.length out_globals <> expected then
              report ~invariant:"movement-cover"
                (Printf.sprintf "move-out writes %d elements, %s has %d"
                   (List.length out_globals) what expected)
          | Count.More_than _ | Count.Unbounded -> ()
        end
      end
      else if move_out <> [] then
        report ~invariant:"live-out"
          (Printf.sprintf "array %s is not live-out but move-out copies %d \
                           element(s)"
             buf.Alloc.array (List.length move_out));
      (* write-back safety: an element copied out must hold a defined
         value — staged on the way in, or produced by a rewritten
         write.  This is the invariant stride-y writes used to break. *)
      let written_here = Hashtbl.find_opt written name in
      List.iter (fun g ->
        let key = Array.to_list g in
        let defined =
          Hashtbl.mem in_set key
          || (match written_here with
              | Some t -> Hashtbl.mem t key
              | None -> false)
        in
        if not defined then
          report ~invariant:"writeback-defined"
            (Printf.sprintf "move-out writes %s%s, which was neither staged \
                             in nor written by any instance"
               buf.Alloc.array (idx_str g)))
        out_globals
  in
  List.iter check_buffer plan.Plan.buffered;
  (match capacity_words with
   | None -> ()
   | Some cap ->
     (match Zint.to_int_exn (Plan.total_footprint plan env) with
      | fp ->
        (* the effective footprint doubles under double buffering —
           two windows of every staged buffer stay resident *)
        let eff =
          Emsc_machine.Hierarchy.effective_words ~double_buffer fp
        in
        if eff > cap then
          report ~buffer:"<plan>" ~invariant:"capacity"
            (Printf.sprintf
               "effective footprint %d words (%d%s) exceeds scratchpad %d"
               eff fp
               (if double_buffer then " double-buffered" else "")
               cap)
      | exception _ ->
        report ~buffer:"<plan>" ~invariant:"capacity"
          "footprint did not evaluate to an integer"));
  (match hierarchy with
   | None -> ()
   | Some h ->
     (* per-level capacity: place the plan's buffers over the explicit
        levels and compare each level's effective usage against its
        capacity; on a 2-level machine this is the single-scratchpad
        rule again, level by level elsewhere *)
     let staged = List.length plan.Plan.buffered in
     let pl = Placement.of_plan ~double_buffer h plan env in
     if List.length pl.Placement.pl_placed < staged then
       report ~buffer:"<plan>" ~invariant:"capacity"
         "some buffer footprint did not evaluate to an integer"
     else
       List.iter
         (fun v -> report ~buffer:"<plan>" ~invariant:"capacity" v)
         pl.Placement.pl_violations);
  List.rev !violations
