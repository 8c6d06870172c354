(* Cost-model audit: predicted-vs-measured drift on real kernels, the
   per-buffer metrics attribution it relies on, and the bench-compare
   regression gate. *)

open Emsc_core
open Emsc_machine
open Emsc_driver
open Emsc_obs
module A = Emsc_audit.Audit
module BC = Emsc_audit.Bench_compare

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let parse_exn s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let matmul_src =
  {|
  array A[24][24];
  array B[24][24];
  array C[24][24];
  for (i = 0; i <= 23; i++) {
    for (j = 0; j <= 23; j++) {
      for (k = 0; k <= 23; k++) {
        C[i][j] += A[i][k] * B[k][j];
      }
    }
  }
  |}

let compile_matmul () =
  match
    Pipeline.compile_source ~cache:(Cache.in_memory ())
      (Source.Text { name = "matmul-audit"; text = matmul_src })
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e)

(* --- auditing a real untiled kernel ----------------------------------- *)

let test_untiled_pass () =
  let c = compile_matmul () in
  checkb "auditable" true (A.auditable c);
  match A.audit_compiled c with
  | A.Skipped r -> Alcotest.failf "skipped: %s" r
  | A.Failed r -> Alcotest.failf "failed: %s" r
  | A.Audited t ->
    checkb "untiled" false t.A.a_tiled;
    Alcotest.check Alcotest.string "verdict" "pass"
      (A.verdict_string t.A.a_verdict);
    checkb "has buffer groups" true (t.A.a_groups <> []);
    checkb "has program quantities" true (t.A.a_program <> []);
    checkb "has timing quantities" true (t.A.a_timing <> []);
    let all =
      t.A.a_program @ t.A.a_timing
      @ List.concat_map (fun g -> g.A.g_quantities) t.A.a_groups
    in
    List.iter (fun q ->
      checkb (q.A.q_name ^ " within tolerance") true
        (Float.abs q.A.q_rel_err <= t.A.a_tolerance);
      (* movement predictions are upper bounds: never under-predict *)
      if q.A.q_name = "move_in_words" || q.A.q_name = "move_out_words" then
        checkb (q.A.q_name ^ " is an upper bound") true (q.A.q_rel_err >= 0.0))
      all;
    checkb "run metrics captured" true (t.A.a_metrics.Metrics.samples <> []);
    (* the report round-trips through JSON with its status marker *)
    let j = parse_exn (Json.to_string (A.outcome_json ~name:"matmul-audit"
                                         (A.Audited t))) in
    checkb "status" true (Json.member "status" j = Some (Json.Str "audited"));
    checkb "verdict field" true
      (Json.member "verdict" j = Some (Json.Str "pass"));
    checkb "groups field" true (Json.member "groups" j <> None)

let test_suite_ok () =
  let outcomes =
    List.map (fun (job : Pipeline.job) ->
      (Source.name job.Pipeline.source, A.audit_job ~cache:(Cache.in_memory ()) job))
      (Emsc_kernels.Suite.jobs ())
  in
  List.iter (fun (name, o) ->
    checkb (name ^ " audit ok") true (A.ok o)) outcomes;
  (* at least one kernel actually gets audited (not all skipped) *)
  checkb "some audited" true
    (List.exists (fun (_, o) -> match o with A.Audited _ -> true | _ -> false)
       outcomes)

let test_metrics_state_restored () =
  Metrics.reset ();
  Metrics.disable ();
  let c = compile_matmul () in
  (match A.audit_compiled c with
   | A.Audited _ -> ()
   | _ -> Alcotest.fail "expected an audited outcome");
  checkb "metrics disabled again after audit" false (Metrics.enabled ());
  (* nothing leaked into the (disabled) registry for later callers *)
  Metrics.reset ();
  checki "registry empty" 0 (List.length (Metrics.snapshot ()).Metrics.samples)

(* --- per-buffer movement attribution in the interpreter --------------- *)

let test_exec_attribution () =
  let c = compile_matmul () in
  let plan =
    match c.Pipeline.plan with
    | Some p -> p
    | None -> Alcotest.fail "no plan"
  in
  let run () =
    let harness = Plan.all_move_in plan @ Plan.all_move_out plan in
    let locals =
      List.map (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name)
        plan.Plan.buffered
    in
    ignore
      (Runner.execute ~prog:c.Pipeline.prog ~local_ref:(Plan.local_ref plan)
         ~locals ~mode:Exec.Full ~memory:Runner.Zeroed harness)
  in
  Metrics.reset ();
  Metrics.disable ();
  run ();
  checki "disabled run records nothing" 0
    (List.length (Metrics.snapshot ()).Metrics.samples);
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Metrics.disable (); Metrics.reset ())
    (fun () ->
      let snap0 = Metrics.snapshot () in
      run ();
      let d = Metrics.diff snap0 (Metrics.snapshot ()) in
      let copies = Metrics.counter_value d "exec.copies" in
      checkb "copies counted" true (copies > 0.0);
      (* every copy in the staging harness crosses the global/local
         boundary, so per-buffer words sum back to the copy total *)
      let per_buffer =
        List.fold_left (fun acc (b : Plan.buffered) ->
          let labels = [ ("buffer", b.Plan.buffer.Alloc.local_name) ] in
          acc
          +. Metrics.counter_value ~labels d "exec.move_in_words"
          +. Metrics.counter_value ~labels d "exec.move_out_words")
          0.0 plan.Plan.buffered
      in
      Alcotest.check (Alcotest.float 0.0) "per-buffer words = copies" copies
        per_buffer;
      checkb "occupancy recorded" true
        (Metrics.find d "exec.scratchpad_occupancy_total_words" <> None))

(* --- bench-compare gating --------------------------------------------- *)

let artifact figs kernels =
  Json.Obj
    [ ("schema", Json.Str "emsc-bench/1");
      ("figure_wall_ms", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) figs));
      ( "kernel_counters",
        Json.Obj
          (List.map (fun (k, (ld, st)) ->
             ( k,
               Json.Obj
                 [ ("global_loads", Json.Float ld);
                   ("global_stores", Json.Float st) ] ))
             kernels) ) ]

let compare_exn ?wall_tolerance ?move_tolerance old_a new_a =
  match BC.compare ?wall_tolerance ?move_tolerance old_a new_a with
  | Ok r -> r
  | Error e -> Alcotest.failf "compare: %s" e

let base () =
  artifact
    [ ("figure2", 100.0); ("figure3", 40.0) ]
    [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0)) ]

let test_compare_identical () =
  let r = compare_exn (base ()) (base ()) in
  checkb "ok" true (BC.ok r);
  checki "no regressions" 0 (List.length r.BC.r_regressions);
  checki "all unchanged" 4 r.BC.r_unchanged;
  checki "nothing missing" 0 (List.length r.BC.r_missing)

let test_compare_movement_regression () =
  (* +2% global words on one kernel: inside the wall tolerance, outside
     the (tight) movement tolerance — the gate must trip *)
  let worse =
    artifact
      [ ("figure2", 100.0); ("figure3", 40.0) ]
      [ ("matmul", (1020.0, 510.0)); ("me", (2000.0, 100.0)) ]
  in
  let r = compare_exn (base ()) worse in
  checkb "regressed" false (BC.ok r);
  (match r.BC.r_regressions with
   | [ c ] ->
     Alcotest.check Alcotest.string "key" "matmul" c.BC.c_key;
     Alcotest.check Alcotest.string "metric" "global_words" c.BC.c_metric;
     checkb "ratio > 1" true (c.BC.c_ratio > 1.01)
   | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* the same artifact passes when the movement gate is loosened *)
  checkb "loose tolerance passes" true
    (BC.ok (compare_exn ~move_tolerance:0.05 (base ()) worse))

let test_compare_wall_regression () =
  let worse =
    artifact
      [ ("figure2", 200.0); ("figure3", 40.0) ]
      [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0)) ]
  in
  let r = compare_exn (base ()) worse in
  checkb "2x wall time regresses" false (BC.ok r);
  match r.BC.r_regressions with
  | [ c ] -> Alcotest.check Alcotest.string "metric" "wall_ms" c.BC.c_metric
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_compare_missing_and_added () =
  let next =
    artifact
      [ ("figure2", 100.0) ]
      [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0));
        ("conv2d", (7.0, 7.0)) ]
  in
  let r = compare_exn (base ()) next in
  checkb "lost measurement fails" false (BC.ok r);
  checkb "missing names the figure" true
    (List.mem "figure3/wall_ms" r.BC.r_missing);
  checkb "added names the kernel" true
    (List.mem "conv2d/global_words" r.BC.r_added)

let test_compare_improvement () =
  let better =
    artifact
      [ ("figure2", 10.0); ("figure3", 40.0) ]
      [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0)) ]
  in
  let r = compare_exn (base ()) better in
  checkb "improvement keeps ok" true (BC.ok r);
  checki "one improvement" 1 (List.length r.BC.r_improvements);
  (* report JSON carries the gate result *)
  let j = parse_exn (Json.to_string (BC.json r)) in
  checkb "ok field" true (Json.member "ok" j = Some (Json.Bool true))

(* simulated figure points: (figure, series, x, value) *)
let with_figures points a =
  match a with
  | Json.Obj fields ->
    let point (f, s, x, v) =
      Json.Obj
        [ ("figure", Json.Str f); ("series", Json.Str s); ("x", Json.Str x);
          ("value", Json.Float v); ("unit", Json.Str "ms") ]
    in
    Json.Obj (fields @ [ ("figures", Json.List (List.map point points)) ])
  | _ -> assert false

let figure_points ?(fig4 = 6.297398518518518) ?(runtime = 3842.7) () =
  [ ("fig4", "gpu-smem", "256k", fig4); ("fig4", "cpu", "256k", 634.75);
    ("runtime", "me-128", "seq", runtime) ]

let check_model_regression what nudged =
  let r =
    compare_exn (with_figures (figure_points ()) (base ()))
      (with_figures (figure_points ~fig4:nudged ()) (base ()))
  in
  checkb (what ^ " fails the gate") false (BC.ok r);
  match r.BC.r_regressions with
  | [ c ] ->
    Alcotest.check Alcotest.string "key" "fig4.gpu-smem.256k" c.BC.c_key;
    Alcotest.check Alcotest.string "metric" "model_ms" c.BC.c_metric
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_compare_model_up () =
  check_model_regression "nudged up" (Float.succ 6.297398518518518)

let test_compare_model_down () =
  check_model_regression "nudged down" (Float.pred 6.297398518518518)

let test_compare_model_ignores_runtime () =
  let r =
    compare_exn (with_figures (figure_points ()) (base ()))
      (with_figures (figure_points ~runtime:1.0 ()) (base ()))
  in
  checkb "runtime point does not trip the figure gate" true (BC.ok r);
  checki "both fig4 points unchanged, with the four sections" 6
    r.BC.r_unchanged;
  (* a simulated figure the old artifact lacked is added, not missing *)
  let r =
    compare_exn (base ())
      (with_figures [ ("fig5", "cpu", "1M", 2.0) ] (base ()))
  in
  checkb "new figure keeps ok" true (BC.ok r);
  checkb "added names the point" true
    (List.mem "fig5.cpu.1M/model_ms" r.BC.r_added)

let test_compare_malformed () =
  match BC.compare (Json.Obj [ ("schema", Json.Str "emsc-bench/1") ]) (base ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "artifact without sections must be rejected"

let () =
  Alcotest.run "audit"
    [ ( "audit",
        [ Alcotest.test_case "untiled-pass" `Quick test_untiled_pass;
          Alcotest.test_case "suite-ok" `Slow test_suite_ok;
          Alcotest.test_case "metrics-state" `Quick test_metrics_state_restored;
          Alcotest.test_case "exec-attribution" `Quick test_exec_attribution ]
      );
      ( "bench-compare",
        [ Alcotest.test_case "identical" `Quick test_compare_identical;
          Alcotest.test_case "movement-regression" `Quick
            test_compare_movement_regression;
          Alcotest.test_case "wall-regression" `Quick
            test_compare_wall_regression;
          Alcotest.test_case "missing+added" `Quick
            test_compare_missing_and_added;
          Alcotest.test_case "improvement" `Quick test_compare_improvement;
          Alcotest.test_case "model figure nudged up" `Quick
            test_compare_model_up;
          Alcotest.test_case "model figure nudged down" `Quick
            test_compare_model_down;
          Alcotest.test_case "runtime point not model-gated" `Quick
            test_compare_model_ignores_runtime;
          Alcotest.test_case "malformed" `Quick test_compare_malformed ] ) ]
