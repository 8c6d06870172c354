open Emsc_poly
open Emsc_ir
open Emsc_transform
open Emsc_driver

type failure = {
  origin : string;
  setting : string;
  reason : string;
  program : string;
}

type report = {
  generated : int;
  suite : int;
  checks : int;
  failures : failure list;
}

type setting = {
  sname : string;
  options : Options.t;
  needs_independence : bool;
      (** arbitrary rectangular tiling is only semantics-preserving for
          dependence-free programs; settings that tile are skipped (not
          failed) when the program has dependences *)
}

let untiled_settings =
  let base = { Options.default with Options.find_band = false } in
  [ { sname = "cell-merge";
      options = { base with Options.arch = `Cell; merge_per_array = true };
      needs_independence = false };
    { sname = "cell-optmove";
      options = { base with Options.arch = `Cell; optimize_movement = true };
      needs_independence = false };
    { sname = "gpu-delta0.3";
      options = { base with Options.arch = `Gpu };
      needs_independence = false };
    { sname = "gpu-delta0";
      options = { base with Options.arch = `Gpu; delta = 0.0 };
      needs_independence = false } ]

let settings_for ~inter_tile (spec : Gen.t) =
  match spec.Gen.stmts with
  | [ s ] when not spec.Gen.uses_param ->
    let tile_spec =
      Array.init s.Gen.depth (fun _ ->
        { Tile.block = None; mem = Some 4; thread = None })
    in
    (* block tiling with no mem level: the shape inter-tile reuse keys
       on — every dim's origin is a launch parameter and consecutive
       innermost blocks form residency chains *)
    let block_spec =
      Array.init s.Gen.depth (fun _ ->
        { Tile.block = Some 4; mem = None; thread = None })
    in
    untiled_settings
    @ [ { sname = "cell-tiled4";
          options =
            { Options.default with
              Options.arch = `Cell;
              find_band = false;
              tiling = Options.Spec tile_spec };
          needs_independence = true } ]
    @ (if inter_tile then
         [ { sname = "cell-intertile4";
             options =
               { Options.default with
                 Options.arch = `Cell;
                 find_band = false;
                 inter_tile_reuse = true;
                 tiling = Options.Spec block_spec };
             needs_independence = true } ]
       else [])
  | _ -> untiled_settings

(* valuation for the plan's program: original parameters from
   [param_env], tile origins at the lower bound of the origin context
   (a point the movement code's omitted guards are valid at) *)
let invariant_env (c : Pipeline.compiled) param_env =
  match c.Pipeline.tiled with
  | None -> param_env
  | Some t ->
    let tp = t.Pipeline.tiled_prog in
    let ctx = t.Pipeline.context in
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun k name ->
      match Poly.var_bounds_int ctx k with
      | Some lb, _ -> Hashtbl.replace tbl name lb
      | None, _ -> ())
      tp.Prog.params;
    fun name ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None -> param_env name

let violations_str vs =
  String.concat "; "
    (List.map (Format.asprintf "%a" Invariants.pp_violation) vs)

let check_plan ~backend ~capacity_words ~hierarchy ~param_env ~(options : Options.t)
    (c : Pipeline.compiled) =
  match Oracle.check_compiled ~backend ~param_env c with
  | Error r -> Error ("oracle: " ^ r)
  | Ok () ->
    (match c.Pipeline.plan with
     | None -> Ok ()  (* unreachable: the oracle already required a plan *)
     | Some plan ->
       let env = invariant_env c param_env in
       (match
          Invariants.check ~capacity_words ?hierarchy
            ~optimized_movement:options.Options.optimize_movement ~env plan
        with
        | [] -> Ok ()
        | vs -> Error ("invariants: " ^ violations_str vs)))

(* [Ok None] = setting not applicable to this program (skipped) *)
let check_setting ~backend ~capacity_words ~hierarchy (spec : Gen.t) (st : setting) =
  let prog = Gen.materialize spec in
  if st.needs_independence && Deps.analyze prog <> [] then Ok None
  else
    match
      Pipeline.compile
        (Pipeline.job ~options:st.options
           (Source.Program { name = "gen"; prog }))
    with
    | Error e -> Error ("compile: " ^ Frontend.error_message e)
    | Ok c ->
      (match
         check_plan ~backend ~capacity_words ~hierarchy
           ~param_env:(Gen.param_env spec) ~options:st.options c
       with
       | Ok () -> Ok (Some ())
       | Error _ as e -> e)

let check_generated ~backend ~capacity_words ~hierarchy ~inter_tile ~progress
    ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let spec = Gen.generate rng in
  Emsc_obs.Metrics.counter "fuzz.generated" 1.0;
  let checks = ref 0 and failures = ref [] in
  List.iter (fun st ->
    match check_setting ~backend ~capacity_words ~hierarchy spec st with
    | Ok None -> ()
    | Ok (Some ()) ->
      incr checks;
      Emsc_obs.Metrics.counter "fuzz.checks" 1.0
    | Error reason ->
      incr checks;
      Emsc_obs.Metrics.counter "fuzz.checks" 1.0;
      Emsc_obs.Metrics.counter "fuzz.failed" 1.0;
      progress
        (Printf.sprintf "gen#%d failed under %s: %s — shrinking" i st.sname
           reason);
      let still_fails s =
        match check_setting ~backend ~capacity_words ~hierarchy s st with
        | Error _ -> true
        | Ok _ -> false
      in
      Emsc_obs.Metrics.counter "fuzz.shrunk" 1.0;
      let small = Shrink.minimize ~max_steps:25 ~still_fails spec in
      let reason =
        match check_setting ~backend ~capacity_words ~hierarchy small st with
        | Error r -> r
        | Ok _ -> reason
      in
      failures :=
        { origin = Printf.sprintf "gen#%d" i;
          setting = st.sname;
          reason;
          program = Gen.to_string small }
        :: !failures)
    (settings_for ~inter_tile spec);
  (!checks, List.rev !failures)

let check_suite_job ~backend ~capacity_words ~hierarchy (job : Pipeline.job) =
  let name = Source.name job.Pipeline.source in
  match Pipeline.compile job with
  | Error e ->
    ( 1,
      [ { origin = name; setting = "suite";
          reason = "compile: " ^ Frontend.error_message e; program = "" } ] )
  | Ok c ->
    (match c.Pipeline.plan with
     | None -> (0, [])  (* job stops before planning: nothing to validate *)
     | Some _ ->
       (match
          check_plan ~backend ~capacity_words ~hierarchy ~param_env:Runner.zero_env
            ~options:job.Pipeline.options c
        with
        | Ok () -> (1, [])
        | Error reason ->
          ( 1,
            [ { origin = name; setting = "suite"; reason; program = "" } ] )))

let run ?(backend = `Seq) ?(fuzz = 50) ?(seed = 1) ?(capacity_words = 4096)
    ?hierarchy ?(inter_tile = false) ?(progress = fun _ -> ()) () =
  Emsc_obs.Prof.probe "check.run" @@ fun () ->
  let checks = ref 0 and failures = ref [] in
  for i = 0 to fuzz - 1 do
    let c, fs =
      check_generated ~backend ~capacity_words ~hierarchy ~inter_tile
        ~progress ~seed i
    in
    checks := !checks + c;
    failures := !failures @ fs
  done;
  let suite = Emsc_kernels.Suite.jobs () in
  let suite_checked = ref 0 in
  List.iter (fun job ->
    let c, fs = check_suite_job ~backend ~capacity_words ~hierarchy job in
    suite_checked := !suite_checked + c;
    checks := !checks + c;
    failures := !failures @ fs)
    suite;
  { generated = fuzz; suite = !suite_checked; checks = !checks;
    failures = !failures }

module J = Emsc_obs.Json

let report_json r =
  J.Obj
    [ ("schema", J.Str "emsc-check/1");
      ("generated", J.Int r.generated);
      ("suite", J.Int r.suite);
      ("checks", J.Int r.checks);
      ("failures", J.Int (List.length r.failures));
      ( "details",
        J.List
          (List.map (fun f ->
             J.Obj
               [ ("origin", J.Str f.origin);
                 ("setting", J.Str f.setting);
                 ("reason", J.Str f.reason);
                 ("program", J.Str f.program) ])
             r.failures) ) ]

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%d generated program(s), %d suite kernel(s), %d check(s), %d \
     failure(s)@,"
    r.generated r.suite r.checks
    (List.length r.failures);
  List.iter (fun f ->
    Format.fprintf fmt "@,FAIL %s under %s:@,  %s@," f.origin f.setting
      f.reason;
    if f.program <> "" then Format.fprintf fmt "@[<v 2>  %s@]@," f.program)
    r.failures;
  Format.fprintf fmt "@]"
