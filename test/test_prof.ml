(* The span and counter engine: zero-cost-when-disabled discipline,
   hierarchical accumulation with exact call counts under a 4-domain
   hammer, counters outside any probe, agreement of the timeline and
   aggregate views of one recording, deterministic collapsed-stack
   export for a fixed compile, histogram quantiles, and bench-compare
   regression attribution. *)

open Emsc_obs
module BC = Emsc_audit.Bench_compare

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

let with_prof f =
  Prof.reset ();
  Prof.enable ();
  Fun.protect f ~finally:(fun () ->
    Prof.disable ();
    Prof.reset ();
    Prof.use_default_clock ())

(* each clock read advances 1 ms, so every probe "takes" exactly the
   reads its dynamic extent performs — fully deterministic *)
let install_fake_clock () =
  let t = ref 0.0 in
  Prof.set_clock (fun () ->
    t := !t +. 0.001;
    !t)

let frame prof stack =
  match List.find_opt (fun f -> f.Prof.f_stack = stack) prof with
  | Some f -> f
  | None ->
    Alcotest.failf "no frame for stack %s" (String.concat ";" stack)

(* ------------------------------------------------------------------ *)
(* Disabled: no output, no allocation                                  *)
(* ------------------------------------------------------------------ *)

(* top-level so the [wrap] call-site is fully applied: the disabled
   path must not build a closure *)
let na_impl x = x + 1

let test_disabled_records_nothing () =
  Prof.reset ();
  Prof.disable ();
  checki "wrap still runs the function" 42 (Prof.wrap "na" na_impl 41);
  ignore (Prof.probe "p" (fun () -> 7));
  Prof.add "c" 1.0;
  checki "nothing recorded while disabled" 0 (List.length (Prof.snapshot ()));
  checks "collapsed is empty" "" (Prof.collapsed (Prof.snapshot ()))

let test_disabled_no_allocation () =
  Prof.reset ();
  Prof.disable ();
  (* warm up so the loop's code path is settled before measuring *)
  ignore (Prof.wrap "prof.na" na_impl 0);
  Prof.add "prof.na.counter" 1.0;
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    ignore (Prof.wrap "prof.na" na_impl i);
    Prof.add "prof.na.counter" 1.0
  done;
  let dw = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "no allocation when disabled (%.0f words)" dw) true
    (dw < 64.0)

(* ------------------------------------------------------------------ *)
(* Hierarchical accumulation                                           *)
(* ------------------------------------------------------------------ *)

let test_caller_attribution_and_self_time () =
  with_prof (fun () ->
    install_fake_clock ();
    (* clock reads: outer t0 @1ms, inner t0 @2ms, inner pop @3ms,
       outer pop @4ms — inner records 1 ms, outer spans 3 ms *)
    Prof.probe "outer" (fun () ->
      Prof.probe "inner" (fun () -> Prof.add "ticks" 3.0));
    (* the same leaf under a different caller accumulates separately *)
    Prof.probe "other" (fun () -> Prof.probe "inner" (fun () -> ()));
    let prof = Prof.snapshot () in
    checki "four distinct stacks" 4 (List.length prof);
    let outer = frame prof [ "outer" ] in
    checki "outer calls" 1 outer.Prof.f_calls;
    checkf "outer total spans the child's reads" 0.003 outer.Prof.f_total_s;
    checkf "outer self excludes the probed child" 0.002 outer.Prof.f_self_s;
    let inner = frame prof [ "outer"; "inner" ] in
    checkf "inner total" 0.001 inner.Prof.f_total_s;
    checkf "inner self = total (leaf)" 0.001 inner.Prof.f_self_s;
    checkf "counter attributed to the full stack" 3.0
      (List.assoc "ticks" inner.Prof.f_counters);
    checkb "counter absent under the other caller" true
      (List.assoc_opt "ticks" (frame prof [ "other"; "inner" ]).Prof.f_counters
       = None);
    checkf "attributed = both roots" 0.006 (Prof.attributed_s prof);
    (* per-pass aggregation merges the two "inner" stacks *)
    let inner_pass =
      List.find (fun p -> p.Prof.p_name = "inner") (Prof.passes prof)
    in
    checki "pass calls summed across callers" 2 inner_pass.Prof.p_calls;
    checkf "pass self summed across callers" 0.002 inner_pass.Prof.p_self_s)

let test_exception_still_records () =
  with_prof (fun () ->
    install_fake_clock ();
    (try Prof.probe "boom" (fun () -> failwith "x") with Failure _ -> ());
    let f = frame (Prof.snapshot ()) [ "boom" ] in
    checki "errored probe counted" 1 f.Prof.f_calls;
    checki "errored probe marked" 1 f.Prof.f_errors;
    checkb "errored probe timed" true (f.Prof.f_total_s > 0.0);
    (* the stack was popped: a later probe is a root, not a child *)
    Prof.probe "after" (fun () -> ());
    ignore (frame (Prof.snapshot ()) [ "after" ]))

let test_four_domain_hammer_exact_counts () =
  with_prof (fun () ->
    let iters = 1000 in
    let work () =
      for _ = 1 to iters do
        Prof.probe "outer" (fun () ->
          Prof.probe "inner" (fun () -> Prof.add "ticks" 1.0))
      done
    in
    let domains = List.init 4 (fun _ -> Domain.spawn work) in
    List.iter Domain.join domains;
    let prof = Prof.snapshot () in
    let outer = frame prof [ "outer" ] in
    let inner = frame prof [ "outer"; "inner" ] in
    checki "outer calls exact across domains" (4 * iters) outer.Prof.f_calls;
    checki "inner calls exact across domains" (4 * iters) inner.Prof.f_calls;
    checkf "counter total exact across domains"
      (float_of_int (4 * iters))
      (List.assoc "ticks" inner.Prof.f_counters))

(* ------------------------------------------------------------------ *)
(* Counters outside any probe                                          *)
(* ------------------------------------------------------------------ *)

let counters_t =
  Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0))

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_root_counters_kept () =
  with_prof (fun () ->
    install_fake_clock ();
    Prof.add "outside" 2.0;
    Prof.probe "p" (fun () -> Prof.add "inside" 1.0);
    Prof.add "outside" 3.0;
    let prof = Prof.snapshot () in
    let root = frame prof [] in
    check counters_t "kept under the empty stack" [ ("outside", 5.0) ]
      root.Prof.f_counters;
    checki "the empty stack has no calls" 0 root.Prof.f_calls;
    check counters_t "probed counter stays on its stack" [ ("inside", 1.0) ]
      (frame prof [ "p" ]).Prof.f_counters;
    (* per-pass views skip the unlabelled stack instead of raising *)
    Alcotest.(check (list string)) "passes" [ "p" ]
      (List.map (fun p -> p.Prof.p_name) (Prof.passes prof));
    Prof.pp_top Format.str_formatter prof;
    ignore (Format.flush_str_formatter ());
    checks "collapsed holds labelled stacks only" "p 1000\n"
      (Prof.collapsed prof);
    let json = Json.to_string (Prof.json prof) in
    checkb "json keeps the counters" true
      (contains {|{"stack":"","calls":0|} json
       && contains {|"outside":5.0|} json);
    Prof.pp_tree Format.str_formatter ();
    let tree = Format.flush_str_formatter () in
    checkb "tree shows them" true
      (contains "(outside any span)" tree && contains "outside=5" tree))

(* ------------------------------------------------------------------ *)
(* The timeline and aggregate views of one recording agree             *)
(* ------------------------------------------------------------------ *)

let test_views_agree () =
  Prof.reset ();
  Prof.enable ~timeline:true ();
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Prof.reset ();
      Prof.use_default_clock ())
  @@ fun () ->
  (* whole seconds, shared by every domain: durations are small
     integers, so both views' sums are exact *)
  let ticks = Atomic.make 0 in
  Prof.set_clock (fun () -> float_of_int (Atomic.fetch_and_add ticks 1));
  let work d () =
    for i = 1 to 30 do
      Prof.probe "outer" (fun () ->
        Prof.add "items" 1.0;
        Prof.probe ~args:[ ("i", Json.Int i) ] "inner" (fun () ->
          Prof.add "items" 2.0;
          Prof.add "bytes" (float_of_int d));
        (try
           Prof.probe "boom" (fun () ->
             Prof.add "items" 1.0;
             if i mod 3 = 0 then failwith "bang")
         with Failure _ -> ());
        Prof.probe "inner" (fun () -> ()))
    done
  in
  let domains = List.init 3 (fun d -> Domain.spawn (work (d + 1))) in
  work 0 ();
  List.iter Domain.join domains;
  Prof.add "outside" 1.0;
  let events =
    match Json.member "traceEvents" (Prof.chrome_json ()) with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "no traceEvents"
  in
  let name ev =
    match Json.member "name" ev with Some (Json.Str n) -> n | _ -> ""
  in
  let args ev =
    match Json.member "args" ev with Some (Json.Obj a) -> a | _ -> []
  in
  let passes = Prof.passes (Prof.snapshot ()) in
  Alcotest.(check (list string)) "same labels"
    (List.sort_uniq compare (List.map name events))
    (List.sort compare (List.map (fun p -> p.Prof.p_name) passes));
  List.iter (fun (p : Prof.pass) ->
    let evs = List.filter (fun e -> name e = p.Prof.p_name) events in
    let label what = p.Prof.p_name ^ ": " ^ what in
    checki (label "events = calls") p.Prof.p_calls (List.length evs);
    check (Alcotest.float 0.0) (label "sum of dur = total_ms")
      (p.Prof.p_total_s *. 1e3)
      (List.fold_left (fun acc e ->
         match Json.member "dur" e with
         | Some (Json.Float us) -> acc +. (us /. 1e3)
         | _ -> Alcotest.fail "event without dur")
         0.0 evs);
    checki (label "errors") p.Prof.p_errors
      (List.length (List.filter (fun e -> List.mem_assoc "error" (args e)) evs));
    (* counters are the Float args; span args ("i") are Ints *)
    let sums =
      List.fold_left (fun acc e ->
        List.fold_left (fun acc (k, v) ->
          match v with
          | Json.Float x ->
            let cur = Option.value ~default:0.0 (List.assoc_opt k acc) in
            (k, cur +. x) :: List.remove_assoc k acc
          | _ -> acc)
          acc (args e))
        [] evs
    in
    check counters_t (label "counters") p.Prof.p_counters
      (List.sort compare sums))
    passes;
  checki "boom errors" 40 (List.find (fun p -> p.Prof.p_name = "boom") passes).Prof.p_errors

(* ------------------------------------------------------------------ *)
(* Deterministic collapsed export for a fixed compile                  *)
(* ------------------------------------------------------------------ *)

let compile_once () =
  let open Emsc_driver in
  Prof.reset ();
  install_fake_clock ();
  (match
     Pipeline.compile ~cache:Cache.off (Emsc_kernels.Matmul.job ~n:16 ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e));
  Prof.collapsed (Prof.snapshot ())

let test_collapsed_deterministic_for_fixed_compile () =
  with_prof (fun () ->
    let first = compile_once () in
    let second = compile_once () in
    checkb "collapsed output non-trivial" true (String.length first > 0);
    checks "identical across identical compiles" first second;
    let lines = String.split_on_char '\n' (String.trim first) in
    List.iter (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed collapsed line %S" line
      | Some i ->
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        checkb
          (Printf.sprintf "integer self-µs in %S" line)
          true
          (match int_of_string_opt v with Some n -> n >= 0 | None -> false))
      lines;
    checkb "driver stages present" true
      (List.exists
         (fun l -> String.length l >= 7 && String.sub l 0 7 = "driver.")
         lines))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantiles () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      (* values 1..8 fill buckets 0..3 as 1,1,2,4 observations *)
      for v = 1 to 8 do
        Metrics.observe "q" (float_of_int v)
      done;
      let h =
        match Metrics.find (Metrics.snapshot ()) "q" with
        | Some v -> v
        | None -> Alcotest.fail "histogram not recorded"
      in
      let q p =
        match Metrics.quantile h p with
        | Some v -> v
        | None -> Alcotest.fail "quantile on a histogram"
      in
      (* rank 4 of 8 lands at the top of bucket (2,4] *)
      checkf "p50" 4.0 (q 0.5);
      (* rank 7.92 interpolates inside (4,8] *)
      checkf "p99" 7.92 (q 0.99);
      checkb "monotone in q" true (q 0.5 <= q 0.95 && q 0.95 <= q 0.99);
      checkb "counters have no quantiles" true
        (Metrics.quantile (Metrics.Counter 3.0) 0.5 = None);
      (* the JSON rendering carries the fields *)
      let j = Metrics.snapshot_json (Metrics.snapshot ()) in
      let s = Json.to_string j in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl
          && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "p50 rendered" true (contains "\"p50\"" s);
      checkb "p95 rendered" true (contains "\"p95\"" s);
      checkb "p99 rendered" true (contains "\"p99\"" s))

(* ------------------------------------------------------------------ *)
(* Bench-compare regression attribution                                *)
(* ------------------------------------------------------------------ *)

let artifact ~wall ~passes =
  Json.Obj
    [ ( "figure_wall_ms",
        Json.Obj [ ("figA", Json.Float wall) ] );
      ( "kernel_counters",
        Json.Obj
          [ ( "k",
              Json.Obj
                [ ("global_loads", Json.Float 10.0);
                  ("global_stores", Json.Float 10.0) ] ) ] );
      ( "compile_profile",
        Json.Obj
          [ ("schema", Json.Str "emsc-compile-profile/1");
            ( "passes",
              Json.Obj
                (List.map (fun (name, self_ms) ->
                   ( name,
                     Json.Obj
                       [ ("calls", Json.Int 1);
                         ("total_ms", Json.Float self_ms);
                         ("self_ms", Json.Float self_ms) ] ))
                   passes) ) ] ) ]

let compare_exn old_j new_j =
  match BC.compare old_j new_j with
  | Ok r -> r
  | Error e -> Alcotest.failf "compare failed: %s" e

let test_attribution_names_regressed_pass () =
  let old_j =
    artifact ~wall:100.0
      ~passes:[ ("poly.is_empty", 10.0); ("simplex.minimize", 40.0) ]
  in
  let new_j =
    artifact ~wall:300.0 (* 3x: past the default 0.5 wall tolerance *)
      ~passes:
        [ ("poly.is_empty", 12.0); (* within tolerance: not named *)
          ("simplex.minimize", 200.0); (* the offender *)
          ("scan.uset", 50.0) (* absent in old: tolerated as added *) ]
  in
  let r = compare_exn old_j new_j in
  checkb "wall regression fired" false (BC.ok r);
  (match r.BC.r_attribution with
   | [ c ] ->
     checks "offending pass named" "simplex.minimize" c.BC.c_key;
     checks "attribution metric" "pass_self_ms" c.BC.c_metric;
     checkf "old self" 40.0 c.BC.c_old;
     checkf "new self" 200.0 c.BC.c_new
   | l -> Alcotest.failf "expected exactly 1 attribution, got %d"
            (List.length l));
  checkb "absent-in-old pass tolerated as added" true
    (List.mem "scan.uset/pass_self_ms" r.BC.r_added);
  checkb "absent-in-old pass never attributed" true
    (List.for_all (fun c -> c.BC.c_key <> "scan.uset") r.BC.r_attribution);
  (* the failure message itself names the pass *)
  let msg = Format.asprintf "%a" BC.pp r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl
      && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "pp names the offender" true (contains "simplex.minimize" msg);
  checkb "pp labels the attribution" true (contains "ATTRIBUTION" msg)

let test_no_attribution_without_wall_regression () =
  let old_j = artifact ~wall:100.0 ~passes:[ ("poly.is_empty", 10.0) ] in
  let new_j =
    (* pass self time exploded but wall stayed put: profiles alone
       must neither fail the gate nor produce attribution noise *)
    artifact ~wall:101.0 ~passes:[ ("poly.is_empty", 90.0) ]
  in
  let r = compare_exn old_j new_j in
  checkb "still ok" true (BC.ok r);
  checki "no attribution without a wall regression" 0
    (List.length r.BC.r_attribution)

let test_attribution_tolerates_missing_profile () =
  (* an old artifact that predates the profiler has no compile_profile
     section at all: the comparison must still work, with every new
     pass surfacing as added *)
  let old_j =
    Json.Obj
      [ ("figure_wall_ms", Json.Obj [ ("figA", Json.Float 100.0) ]);
        ( "kernel_counters",
          Json.Obj
            [ ( "k",
                Json.Obj
                  [ ("global_loads", Json.Float 10.0);
                    ("global_stores", Json.Float 10.0) ] ) ] ) ]
  in
  let new_j = artifact ~wall:300.0 ~passes:[ ("poly.is_empty", 50.0) ] in
  let r = compare_exn old_j new_j in
  checkb "wall regression still fires" false (BC.ok r);
  checki "nothing attributable without an old profile" 0
    (List.length r.BC.r_attribution);
  checkb "new coverage surfaces as added" true
    (List.mem "poly.is_empty/pass_self_ms" r.BC.r_added)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prof"
    [ ( "disabled",
        [ Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "no allocation" `Quick
            test_disabled_no_allocation ] );
      ( "hierarchy",
        [ Alcotest.test_case "caller attribution and self time" `Quick
            test_caller_attribution_and_self_time;
          Alcotest.test_case "exception still records" `Quick
            test_exception_still_records;
          Alcotest.test_case "4-domain hammer, exact counts" `Quick
            test_four_domain_hammer_exact_counts ] );
      ( "counters",
        [ Alcotest.test_case "kept outside any probe" `Quick
            test_root_counters_kept ] );
      ( "views",
        [ Alcotest.test_case "timeline agrees with aggregate" `Quick
            test_views_agree ] );
      ( "export",
        [ Alcotest.test_case "collapsed deterministic for a fixed compile"
            `Quick test_collapsed_deterministic_for_fixed_compile ] );
      ( "metrics",
        [ Alcotest.test_case "histogram quantiles" `Quick
            test_metrics_quantiles ] );
      ( "bench-compare",
        [ Alcotest.test_case "attribution names the regressed pass" `Quick
            test_attribution_names_regressed_pass;
          Alcotest.test_case "no attribution without wall regression" `Quick
            test_no_attribution_without_wall_regression;
          Alcotest.test_case "tolerates a profile-less old artifact" `Quick
            test_attribution_tolerates_missing_profile ] ) ]
