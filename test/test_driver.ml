(* The driver pipeline: stage memoization semantics, cross-process
   (disk) cache persistence, batch-vs-sequential equivalence, trace
   integration, and recoverable front-end errors. *)

open Emsc_driver

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

let src () = Source.Text { name = "matmul-test"; text = matmul_src }

let compile_ok ?cache ?(options = Options.default) source =
  match Pipeline.compile_source ?cache ~options source with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e)

let stage_cached c name =
  match
    List.find_opt (fun (t : Stage.timing) -> t.Stage.stage = name)
      c.Pipeline.timings
  with
  | Some t -> t.Stage.cached
  | None -> Alcotest.failf "no %S stage in timings" name

(* --- memoization semantics ------------------------------------------- *)

let test_cache_hits () =
  let cache = Cache.in_memory () in
  let c1 = compile_ok ~cache (src ()) in
  Alcotest.(check int) "first run misses" 0 c1.Pipeline.cache_hits;
  Alcotest.(check bool) "first run has misses" true
    (c1.Pipeline.cache_misses > 0);
  let c2 = compile_ok ~cache (src ()) in
  Alcotest.(check int) "second run all hits" c1.Pipeline.cache_misses
    c2.Pipeline.cache_hits;
  Alcotest.(check int) "second run no misses" 0 c2.Pipeline.cache_misses;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " cached") true (stage_cached c2 name))
    [ "deps"; "hyperplanes"; "plan" ];
  Alcotest.(check string) "same digest" c1.Pipeline.digest c2.Pipeline.digest

let test_option_change_misses_plan_only () =
  let cache = Cache.in_memory () in
  let (_ : Pipeline.compiled) = compile_ok ~cache (src ()) in
  (* a different delta invalidates the plan, not the analyses *)
  let c =
    compile_ok ~cache ~options:{ Options.default with delta = 0.7 } (src ())
  in
  Alcotest.(check bool) "deps still hits" true (stage_cached c "deps");
  Alcotest.(check bool) "hyperplanes still hits" true
    (stage_cached c "hyperplanes");
  Alcotest.(check bool) "plan misses" false (stage_cached c "plan")

let test_machine_change_misses_plan_only () =
  let cache = Cache.in_memory () in
  let with_machine h =
    { Options.default with machine = Emsc_machine.Hierarchy.digest h }
  in
  let gtx = Emsc_machine.Hierarchy.gtx8800 in
  let (_ : Pipeline.compiled) =
    compile_ok ~cache ~options:(with_machine gtx) (src ())
  in
  (* same machine digest: the plan entry is warm *)
  let c1 = compile_ok ~cache ~options:(with_machine gtx) (src ()) in
  Alcotest.(check bool) "same machine: plan hits" true (stage_cached c1 "plan");
  (* a different hierarchy must not be served the gtx8800 plan — the
     machine digest is part of the plan fingerprint, while the
     machine-independent analyses stay warm *)
  let c2 =
    compile_ok ~cache
      ~options:(with_machine Emsc_machine.Hierarchy.gtx8800_3level) (src ())
  in
  Alcotest.(check bool) "changed machine: deps hits" true
    (stage_cached c2 "deps");
  Alcotest.(check bool) "changed machine: hyperplanes hits" true
    (stage_cached c2 "hyperplanes");
  Alcotest.(check bool) "changed machine: plan misses" false
    (stage_cached c2 "plan")

let test_tiling_change_misses () =
  let cache = Cache.in_memory () in
  let spec1 =
    [| { Emsc_transform.Tile.block = Some 8; mem = None; thread = None };
       { Emsc_transform.Tile.block = Some 8; mem = None; thread = None };
       { Emsc_transform.Tile.block = None; mem = Some 4; thread = None } |]
  in
  let with_spec s =
    { Options.default with arch = `Cell; tiling = Options.Spec s }
  in
  let (_ : Pipeline.compiled) =
    compile_ok ~cache ~options:(with_spec spec1) (src ())
  in
  let c1 = compile_ok ~cache ~options:(with_spec spec1) (src ()) in
  Alcotest.(check bool) "same spec: tile hits" true (stage_cached c1 "tile");
  Alcotest.(check bool) "same spec: plan hits" true (stage_cached c1 "plan");
  let spec2 =
    [| spec1.(0); spec1.(1);
       { Emsc_transform.Tile.block = None; mem = Some 8; thread = None } |]
  in
  let c2 = compile_ok ~cache ~options:(with_spec spec2) (src ()) in
  Alcotest.(check bool) "changed spec: deps hits" true (stage_cached c2 "deps");
  Alcotest.(check bool) "changed spec: tile misses" false
    (stage_cached c2 "tile");
  Alcotest.(check bool) "changed spec: plan misses" false
    (stage_cached c2 "plan")

let test_source_change_misses () =
  let cache = Cache.in_memory () in
  let (_ : Pipeline.compiled) = compile_ok ~cache (src ()) in
  let other =
    Source.Text
      { name = "matmul-test";
        text =
          String.concat ""
            [ matmul_src; "\n// a comment changes the content digest\n" ] }
  in
  let c = compile_ok ~cache other in
  Alcotest.(check int) "different text: no hits" 0 c.Pipeline.cache_hits

let test_disk_persistence () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-test-cache-%d" (Unix.getpid ()))
  in
  (* two distinct cache values over the same directory model two
     separate processes: the second must hit via the disk layer *)
  let c1 = compile_ok ~cache:(Cache.create ~dir ()) (src ()) in
  Alcotest.(check int) "cold" 0 c1.Pipeline.cache_hits;
  let c2 = compile_ok ~cache:(Cache.create ~dir ()) (src ()) in
  Alcotest.(check int) "warm via disk" c1.Pipeline.cache_misses
    c2.Pipeline.cache_hits;
  Alcotest.(check int) "no misses" 0 c2.Pipeline.cache_misses

let test_corrupt_entry_is_miss () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-test-corrupt-%d" (Unix.getpid ()))
  in
  let (_ : Pipeline.compiled) = compile_ok ~cache:(Cache.create ~dir ()) (src ()) in
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let oc = open_out path in
      output_string oc "garbage";
      close_out oc)
    (Sys.readdir dir);
  let c = compile_ok ~cache:(Cache.create ~dir ()) (src ()) in
  Alcotest.(check int) "corrupt entries all miss" 0 c.Pipeline.cache_hits

let test_failing_writer_leaves_no_tmp () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-test-writer-%d" (Unix.getpid ()))
  in
  let cache = Cache.create ~dir () in
  let key = Cache.key ~digest:"d" ~stage:"s" ~extra:"" in
  (* a writer failing mid-write models a full disk: the .tmp file must
     be closed and unlinked, not orphaned *)
  Cache.store ~writer:(fun _ _ -> raise (Sys_error "injected: disk full"))
    cache ~key 42;
  let tmp_files () =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "no orphaned tmp after Sys_error" []
    (tmp_files ());
  Alcotest.(check bool) "entry not published to disk" false
    (Sys.file_exists (Filename.concat dir key));
  Alcotest.(check (option int)) "in-memory layer still serves it" (Some 42)
    (Cache.find cache ~key);
  (* non-I/O exceptions propagate, but still without leaking the tmp *)
  (match
     Cache.store ~writer:(fun _ _ -> failwith "boom") cache ~key:"k2" 1
   with
   | () -> Alcotest.fail "expected the writer's exception to propagate"
   | exception Failure _ -> ());
  Alcotest.(check (list string)) "no orphaned tmp after Failure" []
    (tmp_files ())

(* --- LRU memory layer ------------------------------------------------- *)

let test_lru_cap_respected () =
  let cache = Cache.in_memory ~max_entries:4 () in
  for i = 0 to 19 do
    let key = Cache.key ~digest:(string_of_int i) ~stage:"s" ~extra:"" in
    let v, cached = Cache.memo cache ~key (fun () -> i) in
    Alcotest.(check int) "computed value" i v;
    Alcotest.(check bool) "first sight is a miss" false cached;
    Alcotest.(check bool) "cap respected under churn" true
      (Cache.mem_entries cache <= 4)
  done;
  Alcotest.(check int) "entries at cap" 4 (Cache.mem_entries cache);
  Alcotest.(check int) "evictions counted" 16 (Cache.evictions cache);
  Alcotest.(check int) "twenty stores" 20 (Cache.stores cache)

let test_lru_recency_order () =
  let cache = Cache.in_memory ~max_entries:2 () in
  let memo k = fst (Cache.memo cache ~key:k (fun () -> k)) in
  ignore (memo "a");
  ignore (memo "b");
  (* touching [a] makes [b] the eviction victim for [c] *)
  ignore (memo "a");
  ignore (memo "c");
  Alcotest.(check (option string)) "a survives (recently used)" (Some "a")
    (Cache.find cache ~key:"a");
  Alcotest.(check (option string)) "b evicted (least recent)" None
    (Cache.find cache ~key:"b");
  Alcotest.(check int) "one eviction" 1 (Cache.evictions cache)

let test_lru_eviction_metrics () =
  Emsc_obs.Metrics.reset ();
  Emsc_obs.Metrics.enable ();
  let finally () =
    Emsc_obs.Metrics.disable ();
    Emsc_obs.Metrics.reset ()
  in
  Fun.protect ~finally (fun () ->
    let cache = Cache.in_memory ~max_entries:2 () in
    for i = 0 to 9 do
      ignore (Cache.memo cache ~key:(string_of_int i) (fun () -> i))
    done;
    let snap = Emsc_obs.Metrics.snapshot () in
    let evictions =
      List.find_map
        (fun (s : Emsc_obs.Metrics.sample) ->
          match s.Emsc_obs.Metrics.m_value with
          | Emsc_obs.Metrics.Counter v
            when s.Emsc_obs.Metrics.m_name = "driver.cache.evictions" ->
            Some v
          | _ -> None)
        snap.Emsc_obs.Metrics.samples
    in
    Alcotest.(check (option (float 0.0))) "evictions in the registry"
      (Some 8.0) evictions)

let test_hit_after_evict_falls_to_disk () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-test-lru-disk-%d" (Unix.getpid ()))
  in
  let cache = Cache.create ~dir ~max_entries:2 () in
  let memo k = ignore (fst (Cache.memo cache ~key:k (fun () -> k))) in
  memo "a";
  memo "b";
  memo "c";   (* evicts [a] from memory; [a] stays published on disk *)
  Alcotest.(check int) "one eviction" 1 (Cache.evictions cache);
  let v, cached = Cache.memo cache ~key:"a" (fun () -> "recompute") in
  Alcotest.(check string) "disk served the evicted entry" "a" v;
  Alcotest.(check bool) "counted as a hit" true cached;
  Alcotest.(check int) "specifically a disk hit" 1 (Cache.disk_hits cache);
  (* the disk hit re-promotes [a] into the memory layer *)
  let (_ : string * bool) = Cache.memo cache ~key:"a" (fun () -> "x") in
  Alcotest.(check int) "promoted back to hot" 1 (Cache.hot_hits cache)

(* --- batch ------------------------------------------------------------ *)

let fingerprint (c : Pipeline.compiled) =
  let plan_s =
    match c.Pipeline.plan with
    | Some p ->
      Emsc_obs.Json.to_string (Emsc_core.Plan.explain_json p)
    | None -> "<no plan>"
  in
  let band_s =
    match c.Pipeline.band with
    | Some b ->
      String.concat ";"
        (List.map
           (fun v -> Format.asprintf "%a" Emsc_linalg.Vec.pp v)
           b.Emsc_transform.Hyperplanes.hyperplanes)
    | None -> "<no band>"
  in
  (c.Pipeline.source_name, c.Pipeline.digest, band_s, plan_s)

let test_batch_matches_sequential () =
  let jobs = Emsc_kernels.Suite.jobs () in
  let seq = Pipeline.compile_many ~jobs:1 jobs in
  let par = Pipeline.compile_many ~jobs:3 jobs in
  Alcotest.(check int) "same cardinality" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      match (a, b) with
      | Ok a, Ok b ->
        let na, da, ba, pa = fingerprint a in
        let nb, db, bb, pb = fingerprint b in
        Alcotest.(check string) "name" na nb;
        Alcotest.(check string) "digest" da db;
        Alcotest.(check string) ("band " ^ na) ba bb;
        Alcotest.(check string) ("plan " ^ na) pa pb
      | Error e, _ | _, Error e ->
        Alcotest.failf "suite kernel failed: %s" (Frontend.error_message e))
    seq par

let test_batch_reports_bad_file () =
  let jobs =
    [ Pipeline.job (src ());
      Pipeline.job (Source.Text { name = "broken"; text = "for (;;)" });
      Pipeline.job (src ()) ]
  in
  let results = Pipeline.compile_many ~jobs:2 jobs in
  (match results with
   | [ Ok _; Error e; Ok _ ] ->
     Alcotest.(check string) "failure origin" "broken" e.Frontend.origin
   | _ -> Alcotest.fail "expected [Ok; Error; Ok] in input order");
  ()

let named n = Pipeline.job (Source.Text { name = n; text = matmul_src })

let test_batch_raising_job_is_named () =
  (* a compile function that raises must surface as that job's own
     error — name and message — never as a collapsed batch failure *)
  let compile_one ~cache (jb : Pipeline.job) =
    if Source.name jb.Pipeline.source = "j2" then failwith "injected crash";
    Pipeline.compile ~cache jb
  in
  List.iter
    (fun jobs_n ->
      let results =
        Pipeline.compile_many ~jobs:jobs_n ~compile_one
          [ named "j0"; named "j1"; named "j2"; named "j3" ]
      in
      match results with
      | [ Ok _; Ok _; Error e; Ok _ ] ->
        Alcotest.(check string) "failed job is named" "j2" e.Frontend.origin;
        Alcotest.(check string) "batch stage" "batch" e.Frontend.stage;
        let contains s sub =
          let n = String.length sub in
          let rec at i =
            i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "message carries the exception" true
          (contains e.Frontend.message "injected crash")
      | _ -> Alcotest.failf "jobs=%d: expected [Ok; Ok; Error j2; Ok]" jobs_n)
    [ 1; 2 ]   (* both the sequential and the forked path *)

let test_batch_dead_worker_is_isolated () =
  (* jobs are dealt round-robin over 2 workers: worker 1 holds j1 and
     j3.  It aborts at j1 without reporting, so j1 and j3 must each
     come back as their own error carrying the exit status, while
     worker 0's j0 and j2 results survive untouched. *)
  let compile_one ~cache (jb : Pipeline.job) =
    if Source.name jb.Pipeline.source = "j1" then Unix._exit 3;
    Pipeline.compile ~cache jb
  in
  let results =
    Pipeline.compile_many ~jobs:2 ~compile_one
      [ named "j0"; named "j1"; named "j2"; named "j3" ]
  in
  match results with
  | [ Ok _; Error e1; Ok _; Error e3 ] ->
    Alcotest.(check string) "j1 named" "j1" e1.Frontend.origin;
    Alcotest.(check string) "j3 named" "j3" e3.Frontend.origin;
    Alcotest.(check string) "exit status reported"
      "worker exited with code 3" e1.Frontend.message;
    Alcotest.(check string) "unreported job carries the same status"
      "worker exited with code 3" e3.Frontend.message
  | _ ->
    Alcotest.failf "expected [Ok; Error; Ok; Error], got %s"
      (String.concat ";"
         (List.map (function Ok _ -> "ok" | Error _ -> "err") results))

(* --- tracing ---------------------------------------------------------- *)

let test_stage_spans () =
  let module Prof = Emsc_obs.Prof in
  let module J = Emsc_obs.Json in
  Prof.reset ();
  Prof.enable ~timeline:true ();
  let finally () =
    Prof.disable ();
    Prof.reset ()
  in
  Fun.protect ~finally (fun () ->
    let (_ : Pipeline.compiled) = compile_ok ~cache:(Cache.in_memory ()) (src ()) in
    let passes =
      List.map (fun p -> p.Prof.p_name) (Prof.passes (Prof.snapshot ()))
    in
    let events =
      match J.member "traceEvents" (Prof.chrome_json ()) with
      | Some l ->
        List.filter_map (fun e ->
          match J.member "name" e with Some (J.Str n) -> Some n | _ -> None)
          (J.to_list l)
      | None -> []
    in
    List.iter
      (fun n ->
        Alcotest.(check bool) ("span " ^ n) true (List.mem n events);
        Alcotest.(check bool) ("pass " ^ n) true (List.mem n passes))
      [ "driver.parse"; "driver.deps"; "driver.hyperplanes"; "driver.plan" ])

(* --- front-end errors ------------------------------------------------- *)

let test_parse_error () =
  match Pipeline.compile_source (Source.Text { name = "bad"; text = "for (" }) with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
    Alcotest.(check string) "origin" "bad" e.Frontend.origin;
    Alcotest.(check string) "stage" "parse" e.Frontend.stage

let test_missing_file () =
  match Pipeline.compile_source (Source.file "/nonexistent/x.emsc") with
  | Ok _ -> Alcotest.fail "expected a read error"
  | Error e -> Alcotest.(check string) "stage" "read" e.Frontend.stage

let test_pipeline_failure_is_error () =
  (* an unbounded parametric block cannot size its buffers: the plan
     stage fails, and the failure must surface as a result, not an
     exception or exit *)
  let text =
    {|
    param N;
    array A[N];
    for (i = 0; i <= N - 1; i++) { A[i] = A[i] + 1; }
    |}
  in
  match
    Pipeline.compile_source
      ~options:{ Options.default with arch = `Cell; find_band = false }
      (Source.Text { name = "unbounded"; text })
  with
  | Ok c -> Alcotest.(check bool) "plan exists" true (c.Pipeline.plan <> None)
  | Error e -> Alcotest.(check string) "stage" "pipeline" e.Frontend.stage

let () =
  Alcotest.run "driver"
    [ ( "cache",
        [ Alcotest.test_case "repeat compilation hits" `Quick test_cache_hits;
          Alcotest.test_case "delta change misses plan only" `Quick
            test_option_change_misses_plan_only;
          Alcotest.test_case "machine change misses plan only" `Quick
            test_machine_change_misses_plan_only;
          Alcotest.test_case "tile change misses tile+plan" `Quick
            test_tiling_change_misses;
          Alcotest.test_case "source change misses" `Quick
            test_source_change_misses;
          Alcotest.test_case "disk persistence" `Quick test_disk_persistence;
          Alcotest.test_case "corrupt entry is a miss" `Quick
            test_corrupt_entry_is_miss;
          Alcotest.test_case "failing writer leaks no tmp file" `Quick
            test_failing_writer_leaves_no_tmp ] );
      ( "lru",
        [ Alcotest.test_case "cap respected under churn" `Quick
            test_lru_cap_respected;
          Alcotest.test_case "least-recent entry is the victim" `Quick
            test_lru_recency_order;
          Alcotest.test_case "evictions reach the metrics registry" `Quick
            test_lru_eviction_metrics;
          Alcotest.test_case "hit after evict falls through to disk" `Quick
            test_hit_after_evict_falls_to_disk ] );
      ( "batch",
        [ Alcotest.test_case "parallel equals sequential" `Slow
            test_batch_matches_sequential;
          Alcotest.test_case "bad file is isolated" `Quick
            test_batch_reports_bad_file;
          Alcotest.test_case "raising job is its own named error" `Quick
            test_batch_raising_job_is_named;
          Alcotest.test_case "dead worker loses only unreported jobs" `Quick
            test_batch_dead_worker_is_isolated ] );
      ( "observability",
        [ Alcotest.test_case "stage spans present" `Quick test_stage_spans ] );
      ( "frontend",
        [ Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "pipeline failure is a result" `Quick
            test_pipeline_failure_is_error ] ) ]
