module J = Emsc_obs.Json

type change = {
  c_key : string;
  c_metric : string;
  c_old : float;
  c_new : float;
  c_ratio : float;
}

type report = {
  r_regressions : change list;
  r_improvements : change list;
  r_unchanged : int;
  r_missing : string list;
  r_added : string list;
  r_attribution : change list;
}

let default_wall_tolerance = 0.5
let default_move_tolerance = 0.01

(* parallel-backend wall times add domain scheduling noise on top of
   ordinary wall jitter (and CI hosts time-slice the domains onto very
   few cores), so this gate is deliberately loose: it catches order-of
   slowdowns, not percent drift *)
let default_runtime_tolerance = 1.0

let num = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | _ -> None

(* figure -> wall ms *)
let wall_section j =
  match J.member "figure_wall_ms" j with
  | Some (J.Obj fields) -> Ok (List.filter_map (fun (k, v) ->
      match num v with Some f -> Some (k, f) | None -> None)
      fields)
  | _ -> Error "artifact has no figure_wall_ms object"

(* "<kernel>.<series>" -> wall ms of the runtime figure; absent in
   artifacts that predate the parallel backend, so absence is an empty
   section (new points then surface as "added", not "missing") *)
let runtime_section j =
  match J.member "runtime_wall_ms" j with
  | Some (J.Obj fields) ->
    List.filter_map (fun (k, v) ->
      match num v with Some f -> Some (k, f) | None -> None)
      fields
  | _ -> []

(* kernel -> overlap-audit failure indicator (1.0 when the runtime
   report's overlap audit failed, 0.0 otherwise); absent in artifacts
   that predate the events layer, so absence is an empty section and
   new reports surface as "added", never as a regression *)
let report_section j =
  match J.member "runtime_report" j with
  | Some (J.Obj fields) ->
    List.filter_map (fun (k, r) ->
      match J.member "overlap_audit" r with
      | Some a ->
        (match J.member "verdict" a with
         | Some (J.Str v) -> Some (k, if v = "fail" then 1.0 else 0.0)
         | _ -> None)
      | None -> None)
      fields
  | _ -> []

(* "<kernel>.<machine>.<edge>" -> words moved across that hierarchy
   edge; absent in artifacts that predate the N-level machine model,
   so absence is an empty section (new keys surface as "added", not
   "missing") *)
let level_movement_section j =
  match J.member "level_movement" j with
  | Some (J.Obj fields) ->
    List.filter_map (fun (k, v) ->
      match num v with Some f -> Some (k, f) | None -> None)
      fields
  | _ -> []

(* "<kernel>.<full|delta>[.<buffer>]" -> words moved by the inter-tile
   reuse figure; absent in artifacts that predate delta movement, so
   absence is an empty section (new keys surface as "added", not
   "missing").  Deterministic like level_movement: gated with the move
   tolerance, so a delta-mode volume that creeps back up toward the
   redundant full-mode volume fails the comparison *)
let transfer_volume_section j =
  match J.member "transfer_volume" j with
  | Some (J.Obj fields) ->
    List.filter_map (fun (k, v) ->
      match num v with Some f -> Some (k, f) | None -> None)
      fields
  | _ -> []

(* latency-SLO keys of the serve-daemon load test: only lower-is-better
   keys are gated — per-request latency quantiles ("*_ms") and the hot
   cache miss rate ("*_miss_rate").  Throughput and hit rates live in
   the same artifact object but growth there is good, so they are
   reported, never compared.  Absent in artifacts that predate the
   daemon, so absence is an empty section (new keys surface as
   "added", not "missing").  Gated with the loose runtime tolerance:
   quantiles off a 1-core CI box carry scheduling noise, and the gate
   exists to catch order-of regressions in the serving path, not
   percent drift. *)
let serve_section j =
  match J.member "serve" j with
  | Some (J.Obj fields) ->
    List.filter_map (fun (k, v) ->
      if String.ends_with ~suffix:"_ms" k
         || String.ends_with ~suffix:"_miss_rate" k
      then match num v with Some f -> Some (k, f) | None -> None
      else None)
      fields
  | _ -> []

(* "<figure>.<series>.<x>" -> value of the simulated figures fig4..fig8:
   outputs of the timing model, not wall times, so they are gated
   two-sided with no tolerance (a model change is never a speed-up).
   Figures absent from the old artifact surface as "added"; the
   runtime and serve points belong to their own sections *)
let model_section j =
  let model = [ "fig4"; "fig5"; "fig6"; "fig7"; "fig8" ] in
  let str k p = match J.member k p with Some (J.Str s) -> Some s | _ -> None in
  match J.member "figures" j with
  | Some (J.List points) ->
    List.filter_map (fun p ->
      match str "figure" p, str "series" p, str "x" p, J.member "value" p with
      | Some f, Some s, Some x, Some v when List.mem f model ->
        Option.map (fun v -> (f ^ "." ^ s ^ "." ^ x, v)) (num v)
      | _ -> None)
      points
  | _ -> []

(* pass name -> self ms from the compile_profile section written by the
   Prof layer; absent in artifacts that predate the profiler, so absence
   is an empty section.  Never gated: per-pass self times are micro
   timings and exist to *attribute* a wall regression to the offending
   pass, not to fail a run on their own *)
let profile_section j =
  match J.member "compile_profile" j with
  | Some p ->
    (match J.member "passes" p with
     | Some (J.Obj fields) ->
       List.filter_map (fun (name, entry) ->
         match J.member "self_ms" entry with
         | Some v -> (match num v with Some f -> Some (name, f) | None -> None)
         | None -> None)
         fields
     | _ -> [])
  | None -> []

(* ignore sub-tenth-of-a-millisecond growth: micro-pass jitter, not a
   credible cause of a wall regression *)
let attribution_floor_ms = 0.1

(* When a wall-clock metric regressed, diff the per-pass self times and
   name the top offenders: passes whose self time grew beyond the wall
   tolerance, largest absolute growth first.  Passes absent from the old
   profile are tolerated as added coverage (they surface in [r_added]),
   and passes the new profile dropped are ignored — attribution explains
   failures, it does not create them. *)
let attribute ~tolerance ~top olds news =
  List.filter_map (fun (name, new_v) ->
    match List.assoc_opt name olds with
    | None -> None
    | Some old_v ->
      if new_v > old_v *. (1.0 +. tolerance)
         && new_v -. old_v >= attribution_floor_ms
      then
        Some
          { c_key = name; c_metric = "pass_self_ms"; c_old = old_v;
            c_new = new_v;
            c_ratio = (if old_v > 0.0 then new_v /. old_v else infinity) }
      else None)
    news
  |> List.sort (fun a b ->
       Stdlib.compare (b.c_new -. b.c_old) (a.c_new -. a.c_old))
  |> List.filteri (fun i _ -> i < top)

(* kernel -> global words moved (loads + stores): the deterministic
   movement-volume figure of merit *)
let movement_section j =
  match J.member "kernel_counters" j with
  | Some (J.Obj fields) ->
    Ok
      (List.filter_map (fun (k, counters) ->
         match
           J.member "global_loads" counters, J.member "global_stores" counters
         with
         | Some ld, Some st ->
           (match num ld, num st with
            | Some l, Some s -> Some (k, l +. s)
            | _ -> None)
         | _ -> None)
         fields)
  | _ -> Error "artifact has no kernel_counters object"

let diff_section ?(two_sided = false) ~metric ~tolerance olds news
    (regressions, improvements, unchanged, missing, added) =
  let acc = ref (regressions, improvements, unchanged, missing, added) in
  List.iter (fun (key, old_v) ->
    let r, i, u, m, a = !acc in
    match List.assoc_opt key news with
    | None -> acc := (r, i, u, (key ^ "/" ^ metric) :: m, a)
    | Some new_v ->
      let ratio = if old_v > 0.0 then new_v /. old_v else
        if new_v > 0.0 then infinity else 1.0 in
      let change =
        { c_key = key; c_metric = metric; c_old = old_v; c_new = new_v;
          c_ratio = ratio }
      in
      if new_v > old_v *. (1.0 +. tolerance)
         || (two_sided && new_v < old_v *. (1.0 -. tolerance))
      then acc := (change :: r, i, u, m, a)
      else if new_v < old_v *. (1.0 -. tolerance) then
        acc := (r, change :: i, u, m, a)
      else acc := (r, i, u + 1, m, a))
    olds;
  let r, i, u, m, a = !acc in
  let fresh =
    List.filter_map (fun (key, _) ->
      if List.mem_assoc key olds then None else Some (key ^ "/" ^ metric))
      news
  in
  (r, i, u, m, a @ fresh)

let compare ?(wall_tolerance = default_wall_tolerance)
    ?(move_tolerance = default_move_tolerance)
    ?(runtime_tolerance = default_runtime_tolerance) old_j new_j =
  match wall_section old_j, wall_section new_j,
        movement_section old_j, movement_section new_j with
  | Error e, _, _, _ | _, _, Error e, _ -> Error ("old " ^ e)
  | _, Error e, _, _ | _, _, _, Error e -> Error ("new " ^ e)
  | Ok wall_old, Ok wall_new, Ok move_old, Ok move_new ->
    let r, i, u, m, a =
      ([], [], 0, [], [])
      |> diff_section ~metric:"wall_ms" ~tolerance:wall_tolerance wall_old
           wall_new
      |> diff_section ~metric:"global_words" ~tolerance:move_tolerance
           move_old move_new
      |> diff_section ~two_sided:true ~metric:"model_ms" ~tolerance:0.0
           (model_section old_j) (model_section new_j)
      |> diff_section ~metric:"level_words" ~tolerance:move_tolerance
           (level_movement_section old_j) (level_movement_section new_j)
      |> diff_section ~metric:"transfer_words" ~tolerance:move_tolerance
           (transfer_volume_section old_j) (transfer_volume_section new_j)
      |> diff_section ~metric:"runtime_wall_ms" ~tolerance:runtime_tolerance
           (runtime_section old_j) (runtime_section new_j)
      |> diff_section ~metric:"serve_slo" ~tolerance:runtime_tolerance
           (serve_section old_j) (serve_section new_j)
      (* a freshly failing overlap audit (0 -> 1) is a regression in
         its own right, regardless of wall time *)
      |> diff_section ~metric:"overlap_fail" ~tolerance:0.0
           (report_section old_j) (report_section new_j)
    in
    let prof_old = profile_section old_j in
    let prof_new = profile_section new_j in
    (* profile coverage the old artifact lacked is added, never missing *)
    let a =
      a
      @ List.filter_map (fun (name, _) ->
          if List.mem_assoc name prof_old then None
          else Some (name ^ "/pass_self_ms"))
          prof_new
    in
    let wall_regressed =
      List.exists (fun c ->
        c.c_metric = "wall_ms" || c.c_metric = "runtime_wall_ms")
        r
    in
    let attribution =
      if wall_regressed then
        attribute ~tolerance:wall_tolerance ~top:3 prof_old prof_new
      else []
    in
    Ok
      { r_regressions = List.rev r;
        r_improvements = List.rev i;
        r_unchanged = u;
        r_missing = List.rev m;
        r_added = a;
        r_attribution = attribution }

let ok r = r.r_regressions = [] && r.r_missing = []

let change_json c =
  J.Obj
    [ ("key", J.Str c.c_key); ("metric", J.Str c.c_metric);
      ("old", J.Float c.c_old); ("new", J.Float c.c_new);
      ("ratio", J.Float c.c_ratio) ]

let strs l = J.List (List.map (fun s -> J.Str s) l)

let json r =
  J.Obj
    [ ("schema", J.Str "emsc-bench-compare/1");
      ("ok", J.Bool (ok r));
      ("regressions", J.List (List.map change_json r.r_regressions));
      ("improvements", J.List (List.map change_json r.r_improvements));
      ("unchanged", J.Int r.r_unchanged);
      ("missing", strs r.r_missing);
      ("added", strs r.r_added);
      ("attribution", J.List (List.map change_json r.r_attribution)) ]

let pp_change fmt c =
  Format.fprintf fmt "%s %s: %.6g -> %.6g (%.2fx)" c.c_key c.c_metric c.c_old
    c.c_new c.c_ratio

let pp fmt r =
  Format.fprintf fmt "@[<v>%s: %d regression(s), %d improvement(s), %d \
                      unchanged, %d missing, %d added@,"
    (if ok r then "OK" else "REGRESSED")
    (List.length r.r_regressions)
    (List.length r.r_improvements)
    r.r_unchanged
    (List.length r.r_missing)
    (List.length r.r_added);
  List.iter (fun c -> Format.fprintf fmt "REGRESSION %a@," pp_change c)
    r.r_regressions;
  if r.r_attribution <> [] then begin
    Format.fprintf fmt "wall regression attributed to (per-pass self time):@,";
    List.iter (fun c -> Format.fprintf fmt "  ATTRIBUTION %a@," pp_change c)
      r.r_attribution
  end;
  List.iter (fun k -> Format.fprintf fmt "MISSING %s@," k) r.r_missing;
  List.iter (fun c -> Format.fprintf fmt "improved %a@," pp_change c)
    r.r_improvements;
  Format.fprintf fmt "@]"
