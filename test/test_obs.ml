(* Observability layer: JSON round-trips, span trees, metric records,
   and the plan-explain report on a real kernel. *)

open Emsc_obs
open Emsc_core
open Emsc_machine
open Emsc_kernels

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json: printing, parsing, round-trips                                *)
(* ------------------------------------------------------------------ *)

let golden = Alcotest.testable (Fmt.of_to_string Json.to_string) Json.equal

let parse_exn s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_print () =
  checks "obj"
    {|{"a":1,"b":[true,null,"x\n"],"c":-2.5}|}
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\n" ]);
            ("c", Json.Float (-2.5)) ]));
  (* non-finite floats must not produce invalid JSON *)
  checks "nan" "null" (Json.to_string (Json.Float Float.nan));
  checks "inf" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_roundtrip () =
  let samples =
    [ Json.Null; Json.Bool false; Json.Int (-42); Json.Int max_int;
      Json.Float 0.3; Json.Float 1e-9; Json.Float 123456.75;
      Json.Str "plain"; Json.Str "esc \" \\ \n \t \x01";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj [ ("k", Json.Str "v"); ("nested", Json.Obj [ ("x", Json.Int 0) ]) ]
    ]
  in
  List.iter (fun j ->
    check golden "compact" j (parse_exn (Json.to_string j));
    check golden "pretty" j (parse_exn (Json.to_string ~pretty:true j)))
    samples

let test_json_parse () =
  check golden "ws" (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ])
    (parse_exn " { \"a\" : [ 1 , 2 ] } ");
  check golden "exp-is-float" (Json.Float 1500.0) (parse_exn "1.5e3");
  check golden "unicode-escape" (Json.Str "A\xc3\xa9") (parse_exn {|"Aé"|});
  List.iter (fun bad ->
    match Json.of_string bad with
    | Ok _ -> Alcotest.failf "expected parse failure on %S" bad
    | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* seeded random JSON values: escape-heavy strings, Int boundaries,
   awkward floats, nesting — the parser and printer must agree on all
   of them *)
let gen_string rng =
  let pieces =
    [| "a"; "xyz"; "\""; "\\"; "\n"; "\t"; "\r"; "\x01"; "\x1f"; "\xc3\xa9";
       "{"; "["; ","; " "; "e5"; "-" |]
  in
  String.concat ""
    (List.init (Random.State.int rng 8) (fun _ ->
       pieces.(Random.State.int rng (Array.length pieces))))

let rec gen_json rng depth =
  match Random.State.int rng (if depth = 0 then 6 else 8) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Random.State.bool rng)
  | 2 -> Json.Int (Random.State.int rng 2_000_001 - 1_000_000)
  | 3 ->
    Json.Int
      [| max_int; min_int; 0; -1; 1 lsl 53; (1 lsl 53) + 1 |].(Random.State.int
                                                                 rng 6)
  | 4 ->
    let specials =
      [| 0.3; -0.0; 1e-9; 1.5e15; -1.25e300; 4.5e-300; 123456.75 |]
    in
    if Random.State.bool rng then
      Json.Float specials.(Random.State.int rng (Array.length specials))
    else Json.Float (Random.State.float rng 2e6 -. 1e6)
  | 5 -> Json.Str (gen_string rng)
  | 6 ->
    Json.List
      (List.init (Random.State.int rng 5) (fun _ -> gen_json rng (depth - 1)))
  | _ ->
    Json.Obj
      (List.init (Random.State.int rng 5) (fun i ->
         (Printf.sprintf "k%d%s" i (gen_string rng), gen_json rng (depth - 1))))

let test_json_property () =
  let rng = Random.State.make [| 0xE5C; 42 |] in
  for _ = 1 to 500 do
    let j = gen_json rng 4 in
    let s = Json.to_string j in
    match Json.of_string s with
    | Error e -> Alcotest.failf "reparse %S: %s" s e
    | Ok j' ->
      if not (Json.equal j j') then Alcotest.failf "round-trip %S" s
  done;
  for _ = 1 to 100 do
    let j = gen_json rng 3 in
    match Json.of_string (Json.to_string ~pretty:true j) with
    | Ok j' when Json.equal j j' -> ()
    | _ -> Alcotest.failf "pretty round-trip %s" (Json.to_string j)
  done

let test_json_boundaries () =
  (* non-finite floats degrade to null wherever they appear *)
  checks "nonfinite" "[null,null,null]"
    (Json.to_string
       (Json.List
          [ Json.Float Float.nan; Json.Float Float.infinity;
            Json.Float Float.neg_infinity ]));
  (* deep nesting round-trips *)
  let deep = ref (Json.Int 1) in
  for _ = 1 to 200 do deep := Json.List [ !deep ] done;
  check golden "deep" !deep (parse_exn (Json.to_string !deep));
  (* Int boundaries survive as Int *)
  check golden "max_int" (Json.Int max_int)
    (parse_exn (Json.to_string (Json.Int max_int)));
  check golden "min_int" (Json.Int min_int)
    (parse_exn (Json.to_string (Json.Int min_int)));
  (* a literal with a fraction or exponent is a Float even when it has
     an integral value *)
  check golden "big-float" (Json.Float 1e308) (parse_exn "1e308");
  check golden "tiny-float" (Json.Float 4.5e-300) (parse_exn "4.5e-300");
  check golden "int-valued-float" (Json.Float 3.0) (parse_exn "3.0")

(* ------------------------------------------------------------------ *)
(* Prof timeline: span nesting, timing, Chrome export                  *)
(* ------------------------------------------------------------------ *)

(* deterministic clock: each reading advances by one second *)
let with_fake_clock f =
  let t = ref 0.0 in
  Prof.set_clock (fun () -> t := !t +. 1.0; !t);
  Prof.reset ();
  Prof.enable ~timeline:true ();
  Fun.protect f ~finally:(fun () ->
    Prof.disable ();
    Prof.reset ();
    Prof.use_default_clock ())

let build_tree () =
  Prof.probe "outer" (fun () ->
    Prof.add "items" 2.0;
    Prof.probe "inner" (fun () -> Prof.add "items" 1.0);
    Prof.probe "inner" (fun () -> ()))

(* the Chrome events of the recorded timeline, through a print/parse
   round-trip *)
let chrome_events () =
  match
    Json.member "traceEvents" (parse_exn (Json.to_string (Prof.chrome_json ())))
  with
  | Some e -> Json.to_list e
  | None -> Alcotest.fail "no traceEvents"

let ev_name ev =
  match Json.member "name" ev with Some (Json.Str n) -> n | _ -> ""

let ev_num field ev =
  match Json.member field ev with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event without numeric %s" field

let ev_arg name ev = Option.bind (Json.member "args" ev) (Json.member name)

let find_pass n =
  match
    List.find_opt (fun p -> p.Prof.p_name = n) (Prof.passes (Prof.snapshot ()))
  with
  | Some p -> p
  | None -> Alcotest.failf "no pass %s" n

let counters_t =
  Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0))

let test_span_nesting () =
  with_fake_clock (fun () ->
    build_tree ();
    match chrome_events () with
    | [ outer; a; b ] ->
      Alcotest.(check (list string)) "pre-order names"
        [ "outer"; "inner"; "inner" ] (List.map ev_name [ outer; a; b ]);
      let ts = ev_num "ts" and dur = ev_num "dur" in
      List.iter (fun c ->
        checkb "child within parent" true
          (ts c >= ts outer && ts c +. dur c <= ts outer +. dur outer))
        [ a; b ];
      (* children in start order, non-overlapping under the fake clock *)
      checkb "monotonic starts" true (ts a +. dur a <= ts b);
      (* counters land on the innermost open span, no roll-up *)
      checkb "outer counters" true
        (ev_arg "items" outer = Some (Json.Float 2.0));
      checkb "inner counters" true (ev_arg "items" a = Some (Json.Float 1.0));
      checkb "no counter on the second inner" true (ev_arg "items" b = None)
    | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_span_disabled_and_errors () =
  Prof.reset ();
  Prof.disable ();
  check Alcotest.int "disabled passthrough" 7 (Prof.probe "x" (fun () -> 7));
  Prof.add "noop" 1.0;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Prof.snapshot ()));
  with_fake_clock (fun () ->
    (try Prof.probe "boom" (fun () -> failwith "bang") with Failure _ -> ());
    match chrome_events () with
    | [ n ] -> checkb "error marked" true (ev_arg "error" n <> None)
    | _ -> Alcotest.fail "raising span must still be recorded")

let test_chrome_json () =
  with_fake_clock (fun () ->
    build_tree ();
    let events = chrome_events () in
    Alcotest.(check int) "event count" 3 (List.length events);
    List.iter (fun ev ->
      checkb "complete event" true
        (Json.member "ph" ev = Some (Json.Str "X"));
      List.iter (fun f ->
        checkb (f ^ " present") true (Json.member f ev <> None))
        [ "name"; "ts"; "dur"; "pid"; "tid" ])
      events;
    (* the aggregate view of the same recording sees both spans *)
    Alcotest.(check int) "inner calls" 2 (find_pass "inner").Prof.p_calls)

let test_aggregate_errors () =
  with_fake_clock (fun () ->
    build_tree ();
    (try
       Prof.probe "boom" (fun () ->
         Prof.add "items" 5.0;
         failwith "bang")
     with Failure _ -> ());
    let find = find_pass in
    Alcotest.(check int) "boom calls" 1 (find "boom").Prof.p_calls;
    Alcotest.(check int) "boom errors" 1 (find "boom").Prof.p_errors;
    Alcotest.(check int) "inner errors" 0 (find "inner").Prof.p_errors;
    Alcotest.(check int) "outer errors" 0 (find "outer").Prof.p_errors;
    (* counter totals ride along per span name *)
    check counters_t "boom counters" [ ("items", 5.0) ]
      (find "boom").Prof.p_counters;
    check counters_t "inner counters" [ ("items", 1.0) ]
      (find "inner").Prof.p_counters;
    (* the error span is marked in the pass_timings JSON too *)
    let j =
      parse_exn (Json.to_string (Prof.pass_timings (Prof.snapshot ())))
    in
    let rows = Json.to_list j in
    let boom =
      List.find (fun r -> Json.member "name" r = Some (Json.Str "boom")) rows
    in
    checkb "errors field" true (Json.member "errors" boom = Some (Json.Int 1));
    List.iter (fun k ->
      checkb (k ^ " key") true (Json.member k boom <> None))
      [ "name"; "calls"; "errors"; "total_ms"; "counters" ])

(* ------------------------------------------------------------------ *)
(* Log: ndjson sink flushes after every record                         *)
(* ------------------------------------------------------------------ *)

let test_ndjson_flush () =
  let path = Filename.temp_file "emsc-log" ".ndjson" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      Log.set_sink (Some (Log.ndjson_sink oc));
      Log.info ~fields:[ ("k", Json.Int 1) ] "first";
      Log.warn "second";
      (* the records must be on disk *without* closing the channel *)
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let l1 = input_line ic in
          let l2 = input_line ic in
          (match input_line ic with
           | _ -> Alcotest.fail "expected exactly two records"
           | exception End_of_file -> ());
          List.iter2 (fun line (level, msg) ->
            let j = parse_exn line in
            checkb "level" true (Json.member "level" j = Some (Json.Str level));
            checkb "msg" true (Json.member "msg" j = Some (Json.Str msg)))
            [ l1; l2 ]
            [ ("info", "first"); ("warn", "second") ]))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let with_metrics f =
  Metrics.reset ();
  Metrics.set_clock (fun () -> 12.0);
  Metrics.enable ();
  Fun.protect f ~finally:(fun () ->
    Metrics.disable ();
    Metrics.reset ();
    Metrics.use_default_clock ())

let test_metrics_disabled () =
  Metrics.reset ();
  Metrics.disable ();
  Metrics.counter "c" 1.0;
  Metrics.gauge "g" 2.0;
  Metrics.gauge_max "m" 3.0;
  Metrics.observe "h" 4.0;
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "metrics-off snapshot is empty" 0
    (List.length snap.Metrics.samples)

let test_metrics_updates () =
  with_metrics (fun () ->
    Metrics.counter "c" 2.0;
    Metrics.counter "c" 3.0;
    Metrics.counter ~labels:[ ("b", "2"); ("a", "1") ] "c" 1.0;
    Metrics.gauge "g" 9.0;
    Metrics.gauge "g" 5.0;
    Metrics.gauge_max "m" 2.0;
    Metrics.gauge_max "m" 7.0;
    Metrics.gauge_max "m" 3.0;
    Metrics.observe "h" 1.0;
    Metrics.observe "h" 1000.0;
    Metrics.observe "h" 0.0;
    let snap = Metrics.snapshot () in
    check (Alcotest.float 0.0) "counter" 5.0 (Metrics.counter_value snap "c");
    (* label order is canonicalized *)
    check (Alcotest.float 0.0) "labeled counter" 1.0
      (Metrics.counter_value ~labels:[ ("a", "1"); ("b", "2") ] snap "c");
    checkb "gauge keeps last" true (Metrics.find snap "g" = Some (Metrics.Gauge 5.0));
    checkb "gauge_max keeps max" true
      (Metrics.find snap "m" = Some (Metrics.Gauge 7.0));
    (match Metrics.find snap "h" with
     | Some (Metrics.Histogram { count; sum; buckets }) ->
       Alcotest.(check int) "hist count" 3 count;
       check (Alcotest.float 0.0) "hist sum" 1001.0 sum;
       (* 0.0 underflows, 1.0 lands in 2^0, 1000.0 in 2^10 *)
       checkb "buckets" true (buckets = [ (min_int, 1); (0, 1); (10, 1) ])
     | _ -> Alcotest.fail "h is not a histogram");
    check (Alcotest.float 0.0) "deterministic clock" 12.0
      snap.Metrics.at_s;
    (* the JSON rendering parses and labels the underflow bucket *)
    let j = parse_exn (Json.to_string (Metrics.snapshot_json snap)) in
    checkb "metrics list" true (Json.member "metrics" j <> None))

let test_metrics_diff () =
  with_metrics (fun () ->
    Metrics.counter "c" 10.0;
    Metrics.gauge "g" 1.0;
    Metrics.observe "h" 4.0;
    let snap0 = Metrics.snapshot () in
    Metrics.counter "c" 2.5;
    Metrics.gauge "g" 8.0;
    Metrics.observe "h" 4.0;
    Metrics.counter "fresh" 1.0;
    let d = Metrics.diff snap0 (Metrics.snapshot ()) in
    check (Alcotest.float 0.0) "counter delta" 2.5 (Metrics.counter_value d "c");
    check (Alcotest.float 0.0) "fresh counter" 1.0
      (Metrics.counter_value d "fresh");
    checkb "gauge takes later value" true
      (Metrics.find d "g" = Some (Metrics.Gauge 8.0));
    match Metrics.find d "h" with
    | Some (Metrics.Histogram { count; sum; buckets }) ->
      Alcotest.(check int) "hist delta count" 1 count;
      check (Alcotest.float 0.0) "hist delta sum" 4.0 sum;
      checkb "hist delta buckets" true (buckets = [ (2, 1) ])
    | _ -> Alcotest.fail "h missing from diff")

(* the registry is shared mutable state behind one mutex: four domains
   hammering the same cells must lose no update — the totals are exact,
   not approximate *)
let test_metrics_parallel () =
  with_metrics (fun () ->
    let domains = 4 and iters = 5000 in
    let workers =
      List.init domains (fun d ->
        Domain.spawn (fun () ->
          for i = 1 to iters do
            Metrics.counter "par.c" 1.0;
            Metrics.gauge_max "par.m" (float_of_int ((d * iters) + i));
            Metrics.observe "par.h" 1.0
          done))
    in
    List.iter Domain.join workers;
    let snap = Metrics.snapshot () in
    check (Alcotest.float 0.0) "exact counter total"
      (float_of_int (domains * iters))
      (Metrics.counter_value snap "par.c");
    checkb "gauge_max saw the global max" true
      (Metrics.find snap "par.m"
       = Some (Metrics.Gauge (float_of_int (domains * iters))));
    match Metrics.find snap "par.h" with
    | Some (Metrics.Histogram { count; sum; _ }) ->
      Alcotest.(check int) "exact histogram count" (domains * iters) count;
      check (Alcotest.float 0.0) "exact histogram sum"
        (float_of_int (domains * iters))
        sum
    | _ -> Alcotest.fail "par.h is not a histogram")

(* spans opened on different domains keep their own stacks (so nesting
   is per-domain) while completed roots and counter totals merge; every
   span must survive the concurrent recording *)
let test_trace_parallel () =
  Prof.reset ();
  Prof.enable ~timeline:true ();
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Prof.reset ())
    (fun () ->
      let domains = 4 and iters = 200 in
      let workers =
        List.init domains (fun _ ->
          Domain.spawn (fun () ->
            for _ = 1 to iters do
              Prof.probe "outer" (fun () ->
                Prof.add "items" 1.0;
                Prof.probe "inner" (fun () -> ()))
            done))
      in
      List.iter Domain.join workers;
      let events = chrome_events () in
      let named n = List.filter (fun e -> ev_name e = n) events in
      let outers = named "outer" in
      Alcotest.(check int) "every outer span recorded" (domains * iters)
        (List.length outers);
      Alcotest.(check int) "every inner span recorded" (domains * iters)
        (List.length (named "inner"));
      (* pre-order: each outer is followed by its own inner, on its tid *)
      let rec nested = function
        | o :: i :: rest when ev_name o = "outer" ->
          ev_name i = "inner"
          && Json.member "tid" o = Json.member "tid" i
          && nested rest
        | [] -> true
        | _ -> false
      in
      checkb "nested child stayed on its domain" true (nested events);
      (* roots come back sorted by start time for the Chrome export *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> ev_num "ts" a <= ev_num "ts" b && sorted rest
        | _ -> true
      in
      checkb "roots in start order" true (sorted outers);
      Alcotest.(check int) "outer calls" (domains * iters)
        (find_pass "outer").Prof.p_calls;
      Alcotest.(check int) "inner calls" (domains * iters)
        (find_pass "inner").Prof.p_calls;
      check counters_t "exact counter total"
        [ ("items", float_of_int (domains * iters)) ]
        (find_pass "outer").Prof.p_counters)

(* ------------------------------------------------------------------ *)
(* Metric records                                                      *)
(* ------------------------------------------------------------------ *)

let test_counters_json () =
  let c = Exec.fresh () in
  c.Exec.flops <- 10.0;
  c.Exec.g_ld <- 4.0;
  let expected =
    Json.Obj
      [ ("flops", Json.Float 10.0); ("global_loads", Json.Float 4.0);
        ("global_stores", Json.Float 0.0); ("smem_loads", Json.Float 0.0);
        ("smem_stores", Json.Float 0.0); ("syncs", Json.Float 0.0);
        ("fences", Json.Float 0.0) ]
  in
  check golden "counters" expected (Exec.counters_json c);
  check golden "counters round-trip" expected
    (parse_exn (Json.to_string (Exec.counters_json c)))

(* ------------------------------------------------------------------ *)
(* Plan explain on a real kernel                                       *)
(* ------------------------------------------------------------------ *)

let test_explain_matmul () =
  let p = Matmul.program ~n:64 in
  let plan = Plan.plan_block ~arch:`Gpu p in
  let verdicts = Plan.explain plan in
  checkb "has verdicts" true (verdicts <> []);
  List.iter (fun (v : Plan.verdict) ->
    checkb "delta recorded" true (v.Plan.v_delta > 0.0);
    if v.Plan.v_copied then
      checkb "copied has buffer" true (v.Plan.v_buffer <> None))
    verdicts;
  (* the full JSON report round-trips and carries the Algorithm 1
     verdict fields for every partition *)
  let j =
    parse_exn
      (Json.to_string (Plan.explain_json ~capacity_words:4096 plan))
  in
  let parts =
    match Json.member "partitions" j with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "no partitions"
  in
  Alcotest.(check int) "one partition per verdict" (List.length verdicts)
    (List.length parts);
  List.iter (fun part ->
    let a1 =
      match Json.member "algorithm1" part with
      | Some a -> a
      | None -> Alcotest.fail "no algorithm1 verdict"
    in
    List.iter (fun f ->
      checkb (f ^ " present") true (Json.member f a1 <> None))
      [ "rank_reuse"; "overlap_fraction"; "delta"; "beneficial" ];
    match Json.member "copied" part, Json.member "buffer" part with
    | Some (Json.Bool true), Some (Json.Obj _ as b) ->
      checkb "buffer dims" true (Json.member "dims" b <> None)
    | Some (Json.Bool true), _ -> Alcotest.fail "copied without buffer"
    | _ -> ())
    parts;
  match Json.member "totals" j with
  | Some t ->
    checkb "capacity echoed" true
      (Json.member "capacity_words" t = Some (Json.Int 4096));
    checkb "fits flag" true (Json.member "fits_scratchpad" t <> None)
  | None -> Alcotest.fail "no totals"

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "property" `Quick test_json_property;
          Alcotest.test_case "boundaries" `Quick test_json_boundaries ] );
      ( "trace",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled+errors" `Quick
            test_span_disabled_and_errors;
          Alcotest.test_case "chrome-json" `Quick test_chrome_json;
          Alcotest.test_case "aggregate-errors" `Quick test_aggregate_errors;
          Alcotest.test_case "parallel-emission" `Quick test_trace_parallel ]
      );
      ( "log",
        [ Alcotest.test_case "ndjson-flush" `Quick test_ndjson_flush ] );
      ( "metrics",
        [ Alcotest.test_case "counters-json" `Quick test_counters_json;
          Alcotest.test_case "disabled-empty" `Quick test_metrics_disabled;
          Alcotest.test_case "updates" `Quick test_metrics_updates;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
          Alcotest.test_case "4-domain hammer" `Quick test_metrics_parallel ] );
      ( "explain",
        [ Alcotest.test_case "matmul" `Quick test_explain_matmul ] ) ]
