open Emsc_arith
open Emsc_linalg
open Emsc_ir
open Emsc_pip

let dep_obj (d : Deps.t) (h : Vec.t) np =
  let ds = d.Deps.src.Prog.depth and dt = d.Deps.dst.Prog.depth in
  let obj = Vec.make (ds + dt + np + 1) in
  Array.iteri (fun i c -> obj.(i) <- Zint.neg c) h;
  Array.iteri (fun i c -> obj.(ds + i) <- c) h;
  obj

let dep_component_bounds p (d : Deps.t) h =
  let np = Prog.nparams p in
  let obj = dep_obj d h np in
  let lo =
    match Ilp.minimize d.Deps.poly obj with
    | Ilp.Opt (v, _) -> Some v
    | Ilp.Unbounded -> None
    | Ilp.Empty -> Some Zint.zero
    | exception Ilp.Gave_up -> None
  in
  let hi =
    match Ilp.maximize d.Deps.poly obj with
    | Ilp.Opt (v, _) -> Some v
    | Ilp.Unbounded -> None
    | Ilp.Empty -> Some Zint.zero
    | exception Ilp.Gave_up -> None
  in
  (lo, hi)

let is_legal p deps h =
  List.for_all (fun d ->
    match fst (dep_component_bounds p d h) with
    | Some v -> not (Zint.is_negative v)
    | None -> false)
    deps

let is_parallel p deps h =
  is_legal p deps h
  && List.for_all (fun d ->
       match snd (dep_component_bounds p d h) with
       | Some v -> Zint.is_zero v || Zint.is_negative v
       | None -> false)
       deps

type band = {
  hyperplanes : Vec.t list;
  parallel : bool list;
}

(* communication volume proxy: sum over deps of the (capped) maximal
   forward component along h *)
let comm_cost p deps h =
  List.fold_left (fun acc d ->
    match snd (dep_component_bounds p d h) with
    | Some v -> acc + min 100 (max 0 (Zint.to_int_exn (Zint.min v (Zint.of_int 100))))
    | None -> acc + 100)
    0 deps

let candidates ~max_coeff depth =
  let rec build dims =
    if dims = 0 then [ [] ]
    else begin
      let rest = build (dims - 1) in
      List.concat_map (fun tail ->
        List.init ((2 * max_coeff) + 1) (fun k -> (k - max_coeff) :: tail))
        rest
    end
  in
  let all = build depth in
  let vecs =
    List.filter_map (fun l ->
      let v = Vec.of_ints l in
      if Vec.is_zero v then None
      else begin
        (* normalize: content 1, first nonzero positive *)
        let v = Vec.normalize v in
        let rec first i = if Zint.is_zero v.(i) then first (i + 1) else v.(i) in
        Some (if Zint.is_negative (first 0) then Vec.neg v else v)
      end)
      all
  in
  let simplicity v =
    Array.fold_left (fun acc c -> acc + Zint.to_int_exn (Zint.abs c)) 0 v
  in
  List.sort_uniq Vec.compare vecs
  |> List.sort (fun a b -> compare (simplicity a) (simplicity b))

let independent chosen v =
  let m = Array.of_list (v :: chosen) in
  Mat.rank m = List.length chosen + 1

let find_band ?(max_coeff = 1) p deps =
  Emsc_obs.Prof.probe "hyperplanes.find_band" @@ fun () ->
  let depth =
    match p.Prog.stmts with
    | [] -> invalid_arg "Hyperplanes.find_band: empty program"
    | s :: rest ->
      if List.exists (fun t -> t.Prog.depth <> s.Prog.depth) rest then
        invalid_arg "Hyperplanes.find_band: statements of unequal depth";
      s.Prog.depth
  in
  let cands = candidates ~max_coeff depth in
  Emsc_obs.Prof.add "hyperplanes.candidates" (float_of_int (List.length cands));
  let legal_cands =
    List.filter_map (fun h ->
      if is_legal p deps h then
        Some (h, is_parallel p deps h, comm_cost p deps h)
      else None)
      cands
  in
  Emsc_obs.Prof.add "hyperplanes.legal"
    (float_of_int (List.length legal_cands));
  let chosen = ref [] in
  let flags = ref [] in
  let continue_ = ref true in
  while !continue_ && List.length !chosen < depth do
    let avail =
      List.filter (fun (h, _, _) -> independent !chosen h) legal_cands
    in
    match avail with
    | [] -> continue_ := false
    | _ ->
      let best =
        List.fold_left (fun (bh, bp, bc) (h, par, cost) ->
          if
            (par && not bp)
            || (par = bp && cost < bc)
          then (h, par, cost)
          else (bh, bp, bc))
          (match avail with x :: _ -> x | [] -> assert false)
          (List.tl avail)
      in
      let h, par, _ = best in
      chosen := !chosen @ [ h ];
      flags := !flags @ [ par ]
  done;
  (* order space-first, preserving relative order otherwise *)
  let pairs = List.combine !chosen !flags in
  let space, time = List.partition snd pairs in
  let ordered = space @ time in
  { hyperplanes = List.map fst ordered; parallel = List.map snd ordered }

let transform_matrix band ~depth =
  if List.length band.hyperplanes <> depth then None
  else begin
    let m = Array.of_list band.hyperplanes in
    if Zint.is_one (Zint.abs (Mat.det m)) then Some m else None
  end
