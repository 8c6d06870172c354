open Emsc_arith
open Emsc_core
open Emsc_optim

type candidate = {
  t : int array;
  cost : float;
  footprint : int;
}

type problem = {
  ranges : (int * int) array;
  mem_limit_words : int;
  threads : float;
  sync_cost : float;
  transfer_cost : float;
  evaluate : int array -> (float * int) option;
}

let nearest_pow2 v =
  let v = max 1 v in
  let rec go p = if p * 2 <= v then go (p * 2) else p in
  let lower = go 1 in
  if v - lower <= (lower * 2) - v then lower else lower * 2

let clamp_round ?(snap_pow2 = false) ranges x =
  Array.mapi (fun i v ->
    let lo, hi = ranges.(i) in
    let r = int_of_float (Float.round v) in
    let r = if snap_pow2 then nearest_pow2 r else r in
    max lo (min hi r))
    x

let product t = Array.fold_left (fun acc v -> acc *. float_of_int v) 1.0 t

(* Memoized integer evaluation with the penalty used by the continuous
   relaxation: infeasibility is graded so the simplex can walk back
   into the feasible region. *)
let make_penalized pb =
  let cache : (int list, (float * int) option) Hashtbl.t = Hashtbl.create 64 in
  let eval t =
    let key = Array.to_list t in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
      Emsc_obs.Prof.add "tilesearch.evals" 1.0;
      let r = pb.evaluate t in
      Hashtbl.replace cache key r;
      r
  in
  let penalized t =
    match eval t with
    | None -> 1e24
    | Some (cost, fp) ->
      let mem_violation =
        Float.max 0.0
          (float_of_int fp -. float_of_int pb.mem_limit_words)
      in
      let par_violation = Float.max 0.0 (pb.threads -. product t) in
      if mem_violation = 0.0 && par_violation = 0.0 then cost
      else
        1e12 +. (mem_violation *. 1e6) +. (par_violation *. 1e8)
  in
  (eval, penalized)

let feasible pb t (cost, fp) =
  if fp <= pb.mem_limit_words && product t >= pb.threads then
    Some { t = Array.copy t; cost; footprint = fp }
  else None

let better a b =
  match a, b with
  | None, x | x, None -> x
  | Some ca, Some cb -> if cb.cost < ca.cost then Some cb else Some ca

let search ?(max_evals = 400) ?(snap_pow2 = false) pb =
  Emsc_obs.Prof.probe "tilesearch.search" @@ fun () ->
  let n = Array.length pb.ranges in
  let eval, penalized = make_penalized pb in
  (* the distinct-candidate budget: both phases share the memo table,
     so only cache misses cost pipeline evaluations *)
  let evals = ref 0 in
  let best = ref None in
  let consider t =
    match eval t with
    | Some r -> best := better !best (feasible pb t r)
    | None -> ()
  in
  (* continuous relaxation, as in the paper (relax, minimize, round);
     every probe also feeds the incumbent so the rounding phase cannot
     lose what the relaxation already visited *)
  let f x =
    let t = clamp_round ~snap_pow2 pb.ranges x in
    incr evals;
    if !evals <= max_evals then consider t;
    penalized t
  in
  let mid =
    Array.map (fun (lo, hi) -> (float_of_int lo +. float_of_int hi) /. 2.0)
      pb.ranges
  in
  let low = Array.map (fun (lo, _) -> float_of_int lo) pb.ranges in
  let high = Array.map (fun (_, hi) -> float_of_int hi) pb.ranges in
  let quarter =
    Array.map (fun (lo, hi) ->
      float_of_int lo +. ((float_of_int hi -. float_of_int lo) /. 4.0))
      pb.ranges
  in
  let options =
    { Neldermead.default_options with
      max_iter = max 20 (max_evals / 8);
      initial_step = 0.4 }
  in
  let x_star, _ =
    Neldermead.minimize_multistart ~options ~f
      ~starts:[ mid; low; high; quarter ] ()
  in
  consider (clamp_round ~snap_pow2 pb.ranges x_star);
  (* discrete refinement: +-1 (or x2, /2 when snapping), hill climbing *)
  let start =
    match !best with
    | Some c -> Array.copy c.t
    | None -> clamp_round ~snap_pow2 pb.ranges x_star
  in
  let cur = ref start in
  let improved = ref true in
  let climb_evals = ref 0 in
  let in_range i v =
    let lo, hi = pb.ranges.(i) in
    v >= lo && v <= hi
  in
  let try_move deltas =
    (* deltas: (dim, new value) list *)
    if
      !climb_evals < max_evals
      && List.for_all (fun (i, v) -> in_range i v && v <> !cur.(i)) deltas
    then begin
      let t = Array.copy !cur in
      List.iter (fun (i, v) -> t.(i) <- v) deltas;
      incr climb_evals;
      let before = !best in
      consider t;
      match !best, before with
      | Some now, Some was when now.cost < was.cost ->
        cur := Array.copy now.t;
        improved := true
      | Some now, None ->
        cur := Array.copy now.t;
        improved := true
      | _ -> ()
    end
  in
  let steps i =
    if snap_pow2 then [ !cur.(i) * 2; !cur.(i) / 2 ]
    else [ !cur.(i) - 1; !cur.(i) + 1; !cur.(i) * 2; !cur.(i) / 2 ]
  in
  while !improved && !climb_evals < max_evals do
    improved := false;
    (* single-dimension moves *)
    for i = 0 to n - 1 do
      List.iter (fun v -> try_move [ (i, v) ]) (steps i)
    done;
    (* compound trades: grow one dimension while shrinking another, to
       slide along an active memory-capacity wall instead of sticking
       to a corner of it *)
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          List.iter (fun vi ->
            List.iter (fun vj -> try_move [ (i, vi); (j, vj) ]) (steps j))
            (steps i)
      done
    done
  done;
  !best

let pipeline_problem ~prog ~spec_of ~ranges ~mem_limit_words ~threads
    ~sync_cost ~transfer_cost () =
  let zero_env _ = Zint.zero in
  let evaluate t =
    Emsc_obs.Prof.probe "tilesearch.evaluate"
      ~args:
        [ ( "t",
            Emsc_obs.Json.List
              (Array.to_list (Array.map (fun v -> Emsc_obs.Json.Int v) t)) ) ]
    @@ fun () ->
    match
      let spec = spec_of t in
      let tp = Tile.tile_program prog spec in
      let ctx = Tile.origin_context prog spec in
      let plan = Plan.plan_block ~arch:`Gpu ~param_context:ctx tp in
      let footprint =
        Zint.to_int_exn (Plan.total_footprint plan zero_env)
      in
      let cost =
        List.fold_left (fun acc (b : Plan.buffered) ->
          let occ =
            Tile.movement_profile prog spec (b.Plan.move_in, b.Plan.move_out)
          in
          let vol kind =
            (* an unknown movement volume is treated pessimistically:
               infinite cost keeps the search away from candidates whose
               data-movement bound cannot be established, instead of the
               old behaviour of silently pricing them at zero *)
            match
              Movement.volume_upper_bound tp
                b.Plan.buffer.Alloc.partition ~kind ~env:zero_env
            with
            | Some v -> Zint.to_float v
            | None -> Float.infinity
          in
          let vin = vol `Read and vout = vol `Write in
          let term v =
            if v <= 0.0 then 0.0
            else
              occ
              *. ((threads *. sync_cost) +. (v *. transfer_cost /. threads))
          in
          acc +. term vin +. term vout)
          0.0 plan.Plan.buffered
      in
      (cost, footprint)
    with
    | result -> Some result
    | exception _ -> None
  in
  { ranges; mem_limit_words; threads; sync_cost; transfer_cost; evaluate }
