(* The compile daemon: protocol hygiene under malformed input,
   bit-identity of served results against direct pipeline compiles
   (cold, warm, concurrent), domain-safety of the shared hot cache,
   backpressure, queue-deadline timeouts, graceful drain, and file
   descriptor accounting. *)

module P = Emsc_serve.Protocol
module Server = Emsc_serve.Server
module Client = Emsc_serve.Client
module J = Emsc_obs.Json
open Emsc_driver

let matmul_text n =
  Printf.sprintf
    "array A[%d][%d];\narray B[%d][%d];\narray C[%d][%d];\n\
     for (i = 0; i <= %d; i++) {\n\
    \  for (j = 0; j <= %d; j++) {\n\
    \    for (k = 0; k <= %d; k++) {\n\
    \      C[i][j] += A[i][k] * B[k][j];\n\
    \    }\n\
    \  }\n\
     }\n"
    n n n n n n (n - 1) (n - 1) (n - 1)

let tiled_options =
  { P.default_options with o_block = [ 8; 8; 0 ]; o_mem = [ 8; 8; 8 ] }

let req ?timeout_ms ?(id = "t") op = { P.req_id = id; op; timeout_ms }

let compile_req ?timeout_ms ?id ?(options = P.default_options) name text =
  req ?timeout_ms ?id (P.Compile { name; text; options })

(* --- protocol parsing -------------------------------------------------- *)

let reject_code = function
  | Error (r : P.reject) -> r.P.code
  | Ok (r : P.request) -> "accepted:" ^ P.op_name r.P.op

let test_parse_roundtrip () =
  let original =
    compile_req ~id:"42" ~options:tiled_options ~timeout_ms:250.0 "mm"
      (matmul_text 16)
  in
  match P.parse_request (P.request_line original) with
  | Error r -> Alcotest.failf "round-trip rejected: %s" r.P.message
  | Ok parsed ->
    Alcotest.(check string) "id" "42" parsed.P.req_id;
    Alcotest.(check (option (float 0.0))) "timeout" (Some 250.0)
      parsed.P.timeout_ms;
    (match parsed.P.op with
     | P.Compile { name; text; options } ->
       Alcotest.(check string) "name" "mm" name;
       Alcotest.(check string) "text" (matmul_text 16) text;
       Alcotest.(check (list int)) "block" [ 8; 8; 0 ] options.P.o_block;
       Alcotest.(check (list int)) "mem" [ 8; 8; 8 ] options.P.o_mem
     | _ -> Alcotest.fail "expected a compile op")

let test_parse_rejects () =
  List.iter
    (fun (line, code) ->
      Alcotest.(check string) ("reject " ^ code) code
        (reject_code (P.parse_request line)))
    [ ("{\"v\":", "bad_json");
      ("not json at all", "bad_json");
      ("[1,2,3]", "bad_version");
      ("{\"id\":\"1\",\"op\":\"status\"}", "bad_version");
      ("{\"v\":\"emsc-serve/0\",\"op\":\"status\"}", "bad_version");
      ("{\"v\":\"emsc-serve/1\"}", "bad_request");
      ("{\"v\":\"emsc-serve/1\",\"op\":\"frobnicate\"}", "bad_request");
      ("{\"v\":\"emsc-serve/1\",\"op\":\"compile\"}", "bad_request");
      ( "{\"v\":\"emsc-serve/1\",\"op\":\"compile\",\"text\":\"x\",\
         \"options\":{\"block\":[1,\"a\"]}}",
        "bad_request" );
      ("{\"v\":\"emsc-serve/1\",\"op\":\"status\"}", "accepted:status");
      ("{\"v\":\"emsc-serve/1\",\"op\":\"shutdown\"}", "accepted:shutdown");
      ("{\"v\":\"emsc-serve/1\",\"op\":\"check\"}", "accepted:check") ]

(* --- shared hot cache under domains ------------------------------------ *)

let test_cache_hammer_exact_totals () =
  let cache = Cache.in_memory () in
  let domains = 4 and per_domain = 400 and keyspace = 16 in
  let payload k = String.make 4096 (Char.chr (Char.code 'a' + k)) in
  let torn = Atomic.make 0 in
  let work d =
    for i = 0 to per_domain - 1 do
      let k = (i + d) mod keyspace in
      let v, _cached =
        Cache.memo cache ~key:(Printf.sprintf "k%02d" k)
          (fun () -> payload k)
      in
      (* a torn entry would mix characters or lengths *)
      if String.length v <> 4096
         || v.[0] <> Char.chr (Char.code 'a' + k)
         || v.[4095] <> v.[0]
      then Atomic.incr torn
    done
  in
  let doms = List.init domains (fun d -> Domain.spawn (fun () -> work d)) in
  List.iter Domain.join doms;
  Alcotest.(check int) "no torn entries" 0 (Atomic.get torn);
  (* exact accounting: every lookup is a hit or a miss, every miss
     stores, and no update is lost to a racing read-modify-write *)
  let lookups = domains * per_domain in
  Alcotest.(check int) "hits + misses = lookups" lookups
    (Cache.hits cache + Cache.misses cache);
  Alcotest.(check int) "every miss stored" (Cache.misses cache)
    (Cache.stores cache);
  (* concurrent first sights of one key may each compute (benign
     duplication), but misses can never exceed total lookups nor fall
     below the keyspace *)
  Alcotest.(check bool) "at least one miss per key" true
    (Cache.misses cache >= keyspace);
  Alcotest.(check int) "no disk layer in play" 0 (Cache.disk_hits cache);
  Alcotest.(check int) "hot hits account for all hits" (Cache.hits cache)
    (Cache.hot_hits cache)

let test_capped_cache_hammer_stays_capped () =
  let cap = 8 in
  let cache = Cache.in_memory ~max_entries:cap () in
  let doms =
    List.init 4 (fun d ->
      Domain.spawn (fun () ->
        for i = 0 to 299 do
          let k = (i + (d * 7)) mod 32 in
          ignore
            (Cache.memo cache ~key:(string_of_int k) (fun () -> k * k))
        done))
  in
  List.iter Domain.join doms;
  Alcotest.(check bool) "capped after concurrent churn" true
    (Cache.mem_entries cache <= cap);
  Alcotest.(check int) "hits + misses = lookups" (4 * 300)
    (Cache.hits cache + Cache.misses cache);
  Alcotest.(check bool) "evictions happened" true (Cache.evictions cache > 0)

(* --- in-process daemon harness ----------------------------------------- *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?workers ?queue_capacity ?default_timeout_ms ?max_line_bytes
    ?(cache = Cache.in_memory ()) f =
  let sock = fresh_sock () in
  let cfg =
    Server.config ?workers ?queue_capacity ?default_timeout_ms
      ?max_line_bytes ~cache (`Unix sock)
  in
  (* bound before the serving domain starts: [f] never races the
     listen socket or the wake-up pipe into existence *)
  let listener = Server.listen cfg in
  let srv = Domain.spawn (fun () -> Server.serve listener) in
  let shutdown () =
    match
      Client.once ~retries:3 ~retry_delay_s:0.05 (`Unix sock)
        (req ~id:"bye" P.Shutdown)
    with
    | Ok _ | Error _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      ignore (Domain.join srv : Server.stats))
    (fun () -> f (`Unix sock))

let roundtrip_ok conn r =
  match Client.roundtrip conn r with
  | Error m -> Alcotest.failf "transport: %s" m
  | Ok resp ->
    if not resp.Client.ok then
      Alcotest.failf "request %s rejected: %s" r.P.req_id
        (match resp.Client.error with
         | Some e -> e.P.code ^ ": " ^ e.P.message
         | None -> "?");
    resp

let roundtrip_of_recv conn =
  match Client.recv_line conn with
  | Error m -> Alcotest.failf "transport: %s" m
  | Ok raw ->
    (match Client.parse_response raw with
     | Ok r -> r
     | Error m -> Alcotest.failf "bad response: %s" m)

let result_string resp =
  match resp.Client.result with
  | Some r -> J.to_string r
  | None -> Alcotest.fail "ok response without result"

(* what the daemon must be bit-identical to: a direct Pipeline.compile
   of the same job, serialized by the same deterministic encoder *)
let direct_result ?(options = P.default_options) ~op name text =
  match
    Server.job_of_request ~default_machine:"gtx8800" ~name ~text options
  with
  | Error r -> Alcotest.failf "job_of_request: %s" r.P.message
  | Ok (jb, capacity_words) ->
    (match Pipeline.compile ~cache:Cache.off jb with
     | Error e -> Alcotest.failf "direct compile: %s" (Frontend.error_message e)
     | Ok c ->
       J.to_string
         (match op with
          | `Compile -> P.compile_result ~capacity_words c
          | `Analyze -> P.analyze_result ~capacity_words c))

(* --- end-to-end bit-identity ------------------------------------------- *)

let server_field resp name =
  match resp.Client.server with
  | Some s -> J.member name s
  | None -> None

let int_field j = match j with Some (J.Int i) -> i | _ -> -1

let test_served_compile_bit_identical () =
  with_server ~workers:2 @@ fun addr ->
  match Client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let text = matmul_text 16 in
    let want_tiled =
      direct_result ~options:tiled_options ~op:`Compile "mm" text
    in
    let want_plain = direct_result ~op:`Compile "mm" text in
    let want_analyze = direct_result ~op:`Analyze "mm" text in
    (* cold *)
    let cold =
      roundtrip_ok conn (compile_req ~id:"c1" ~options:tiled_options "mm" text)
    in
    Alcotest.(check string) "cold tiled result" want_tiled (result_string cold);
    Alcotest.(check int) "cold misses" 0
      (int_field (server_field cold "cache_hits"));
    (* warm: same job through the hot cache, still bit-identical *)
    let warm =
      roundtrip_ok conn (compile_req ~id:"c2" ~options:tiled_options "mm" text)
    in
    Alcotest.(check string) "warm result identical" want_tiled
      (result_string warm);
    Alcotest.(check bool) "warm run hit the cache" true
      (int_field (server_field warm "cache_hits") > 0);
    Alcotest.(check int) "warm run missed nothing" 0
      (int_field (server_field warm "cache_misses"));
    (* untiled compile and analyze *)
    let plain = roundtrip_ok conn (compile_req ~id:"c3" "mm" text) in
    Alcotest.(check string) "untiled result" want_plain (result_string plain);
    let analyze =
      roundtrip_ok conn
        (req ~id:"c4"
           (P.Analyze { name = "mm"; text; options = P.default_options }))
    in
    Alcotest.(check string) "analyze result" want_analyze
      (result_string analyze)

let test_concurrent_clients_bit_identical () =
  with_server ~workers:3 @@ fun addr ->
  let sources = List.init 4 (fun i -> (Printf.sprintf "mm%d" i, 12 + (4 * i))) in
  let wants =
    List.map
      (fun (name, n) ->
        ( name,
          direct_result ~options:tiled_options ~op:`Compile name
            (matmul_text n) ))
      sources
  in
  let client ci =
    match Client.connect addr with
    | Error m -> failwith m
    | Ok conn ->
      Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
      List.map
        (fun (name, n) ->
          let r =
            roundtrip_ok conn
              (compile_req
                 ~id:(Printf.sprintf "cl%d-%s" ci name)
                 ~options:tiled_options name (matmul_text n))
          in
          (name, result_string r))
        sources
  in
  let doms = List.init 4 (fun ci -> Domain.spawn (fun () -> client ci)) in
  let all = List.concat_map Domain.join doms in
  Alcotest.(check int) "sixteen responses" 16 (List.length all);
  List.iter
    (fun (name, got) ->
      let want = List.assoc name wants in
      Alcotest.(check string) ("concurrent " ^ name) want got)
    all

(* --- protocol fuzz over the wire --------------------------------------- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let expect_error_code conn ~code line =
  Client.send_line conn line;
  match Client.recv_line conn with
  | Error m -> Alcotest.failf "daemon dropped the connection: %s" m
  | Ok raw ->
    (match Client.parse_response raw with
     | Error m -> Alcotest.failf "unparseable response: %s" m
     | Ok resp ->
       Alcotest.(check bool) "rejected" false resp.Client.ok;
       (match resp.Client.error with
        | Some r -> Alcotest.(check string) ("code for " ^ code) code r.P.code
        | None -> Alcotest.fail "reject without error object"))

let test_malformed_requests_rejected_in_band () =
  with_server ~workers:1 ~max_line_bytes:4096 @@ fun addr ->
  match Client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    expect_error_code conn ~code:"bad_json" "{\"v\":\"emsc-serve/1\",";
    expect_error_code conn ~code:"bad_json" "garbage";
    expect_error_code conn ~code:"bad_version"
      "{\"v\":\"emsc-serve/9\",\"id\":\"x\",\"op\":\"status\"}";
    expect_error_code conn ~code:"bad_request"
      "{\"v\":\"emsc-serve/1\",\"op\":\"launch_missiles\"}";
    (* the connection survived four malformed lines: a well-formed
       status on the same connection still answers *)
    let ok = roundtrip_ok conn (req ~id:"alive" P.Status) in
    Alcotest.(check string) "id echoed" "alive" ok.Client.resp_id

let test_oversized_line_rejected_and_no_fd_leak () =
  with_server ~workers:1 ~max_line_bytes:1024 @@ fun addr ->
  let baseline = count_fds () in
  for _round = 1 to 5 do
    match Client.connect addr with
    | Error m -> Alcotest.failf "connect: %s" m
    | Ok conn ->
      Client.send_line conn (String.make 5000 'x');
      (match Client.recv_line conn with
       | Ok raw ->
         (match Client.parse_response raw with
          | Ok resp ->
            Alcotest.(check bool) "oversized rejected" false resp.Client.ok;
            (match resp.Client.error with
             | Some r ->
               Alcotest.(check string) "code" "oversized_line" r.P.code
             | None -> Alcotest.fail "reject without error object")
          | Error m -> Alcotest.failf "unparseable reject: %s" m)
       | Error _ ->
         (* daemon may close before the reject is read; the required
            property is that it neither crashed nor leaked — checked
            below by serving again and counting descriptors *)
         ());
      Client.close conn
  done;
  (* daemon still alive *)
  (match Client.once ~retries:3 ~retry_delay_s:0.05 addr (req P.Status) with
   | Ok resp -> Alcotest.(check bool) "daemon survives" true resp.Client.ok
   | Error m -> Alcotest.failf "daemon died after oversized lines: %s" m);
  (* closed connections must release their descriptors; allow slack
     for the transient status connection above *)
  let settle = ref 0 in
  while count_fds () > baseline && !settle < 50 do
    incr settle;
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "no fd leak" true (count_fds () <= baseline)

(* the select loop cannot watch a descriptor past 1024: a client the
   daemon accepts on one gets a typed reject, and the daemon keeps
   serving once descriptors free up *)
let test_high_fd_rejected_daemon_survives () =
  with_server ~workers:1 @@ fun addr ->
  let held = ref [] in
  let release () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held;
    held := []
  in
  Fun.protect ~finally:release (fun () ->
    let limited =
      try
        for _ = 1 to 1100 do
          held := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !held
        done;
        false
      with Unix.Unix_error (Unix.EMFILE, _, _) -> true
    in
    if limited then
      (* the host's descriptor limit keeps every descriptor below
         select's set size: only survival can be checked here *)
      print_endline "descriptor limit below 1100: typed reject unreachable"
    else begin
      (* a raw socket with a receive timeout: a daemon that died must
         fail the test, not hang it *)
      let path = match addr with `Unix p -> p | `Tcp _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      held := fd :: !held;
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      match input_line (Unix.in_channel_of_descr fd) with
      | exception (End_of_file | Sys_error _) ->
        Alcotest.fail "no typed reject within 10 s"
      | raw ->
        (match Client.parse_response raw with
         | Error m -> Alcotest.failf "unparseable reject: %s" m
         | Ok resp ->
           Alcotest.(check bool) "rejected" false resp.Client.ok;
           (match resp.Client.error with
            | Some r ->
              Alcotest.(check string) "code" "too_many_connections" r.P.code
            | None -> Alcotest.fail "reject without error object"))
    end);
  match Client.once ~retries:3 ~retry_delay_s:0.05 addr (req P.Status) with
  | Ok resp -> Alcotest.(check bool) "status after the reject" true resp.Client.ok
  | Error m -> Alcotest.failf "daemon died at a high descriptor: %s" m

(* a listener whose socket or wake-up pipe would land past select's set
   size fails in [listen], naming the limit and closing what it opened,
   instead of dying on the loop's first tick *)
let test_listen_past_fd_limit_fails () =
  let held = ref [] in
  let release () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held;
    held := []
  in
  Fun.protect ~finally:release (fun () ->
    let limited =
      try
        for _ = 1 to 1100 do
          held := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !held
        done;
        false
      with Unix.Unix_error (Unix.EMFILE, _, _) -> true
    in
    if limited then
      print_endline "descriptor limit below 1100: listen check unreachable"
    else begin
      (* keep every descriptor below 1024 held and free the rest: the
         next one opened is past select's set size *)
      let selectable fd =
        match Unix.select [ fd ] [] [] 0.0 with
        | _ -> true
        | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
      in
      let low, high = List.partition selectable !held in
      List.iter Unix.close high;
      held := low;
      let sock = fresh_sock () in
      let before = count_fds () in
      (match Server.listen (Server.config ~workers:1 (`Unix sock)) with
       | _ -> Alcotest.fail "listen accepted a descriptor past 1024"
       | exception Failure m ->
         Alcotest.(check bool) ("names the limit: " ^ m) true
           (String.starts_with ~prefix:"emsc serve: " m
            && String.ends_with ~suffix:"too many open files" m
            && List.exists
                 (fun w -> w = "(FD_SETSIZE,") (String.split_on_char ' ' m)));
      Alcotest.(check int) "everything opened is closed" before (count_fds ());
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock)
    end)

(* --- backpressure and timeouts ----------------------------------------- *)

let test_queue_full_backpressure () =
  with_server ~workers:1 ~queue_capacity:1 @@ fun addr ->
  match Client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let n = 12 in
    (* one burst write: the event loop ingests all lines in one or two
       reads, far faster than the single worker drains them *)
    for i = 0 to n - 1 do
      Client.send_line conn
        (P.request_line
           (compile_req ~id:(string_of_int i) ~options:tiled_options "mm"
              (matmul_text 16)))
    done;
    let codes = ref [] in
    for _ = 1 to n do
      match Client.recv_line conn with
      | Error m -> Alcotest.failf "lost a response: %s" m
      | Ok raw ->
        (match Client.parse_response raw with
         | Error m -> Alcotest.failf "bad response: %s" m
         | Ok resp ->
           let code =
             if resp.Client.ok then "ok"
             else
               match resp.Client.error with
               | Some r -> r.P.code
               | None -> "?"
           in
           codes := code :: !codes)
    done;
    let count c = List.length (List.filter (( = ) c) !codes) in
    Alcotest.(check int) "every request answered" n (List.length !codes);
    Alcotest.(check bool) "some compiles succeeded" true (count "ok" >= 1);
    Alcotest.(check bool) "burst past the bound is shed" true
      (count "queue_full" >= 1);
    Alcotest.(check int) "nothing but ok/queue_full" n
      (count "ok" + count "queue_full")

let test_queue_deadline_timeout () =
  with_server ~workers:1 @@ fun addr ->
  match Client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    (* request 1 occupies the only worker for many milliseconds; the
       rest carry microscopic deadlines, so the worker finds each of
       them already expired when it finally pops them *)
    Client.send_line conn
      (P.request_line
         (compile_req ~id:"slow" ~options:tiled_options "mm" (matmul_text 24)));
    for i = 1 to 3 do
      Client.send_line conn
        (P.request_line
           (compile_req ~id:(Printf.sprintf "late%d" i) ~timeout_ms:0.01 "mm"
              (matmul_text 24)))
    done;
    let first = roundtrip_of_recv conn in
    Alcotest.(check bool) "head of line compiles" true first.Client.ok;
    for i = 1 to 3 do
      let r = roundtrip_of_recv conn in
      Alcotest.(check bool) (Printf.sprintf "late%d rejected" i) false
        r.Client.ok;
      match r.Client.error with
      | Some e -> Alcotest.(check string) "code" "timeout" e.P.code
      | None -> Alcotest.fail "timeout without error object"
    done

(* --- status and graceful drain ----------------------------------------- *)

let test_status_and_drain () =
  let cache = Cache.in_memory ~max_entries:64 () in
  let sock = fresh_sock () in
  let listener = Server.listen (Server.config ~workers:2 ~cache (`Unix sock)) in
  let srv = Domain.spawn (fun () -> Server.serve listener) in
  let addr = `Unix sock in
  (match Client.connect addr with
   | Error m -> Alcotest.failf "connect: %s" m
   | Ok conn ->
     let (_ : Client.response) =
       roundtrip_ok conn (compile_req ~id:"w" "mm" (matmul_text 16))
     in
     let st = roundtrip_ok conn (req ~id:"st" P.Status) in
     let field n =
       match st.Client.result with Some r -> J.member n r | None -> None
     in
     Alcotest.(check int) "workers reported" 2 (int_field (field "workers"));
     Alcotest.(check bool) "not draining" true
       (field "draining" = Some (J.Bool false));
     Alcotest.(check bool) "cache stats embedded" true
       (match field "cache" with Some (J.Obj _) -> true | _ -> false);
     let bye = roundtrip_ok conn (req ~id:"bye" P.Shutdown) in
     Alcotest.(check bool) "drain acknowledged" true
       (match bye.Client.result with
        | Some r -> J.member "draining" r = Some (J.Bool true)
        | None -> false);
     Client.close conn);
  let stats = Domain.join srv in
  Alcotest.(check bool) "served compile+status+shutdown" true
    (stats.Server.served >= 3);
  (* after drain the daemon rejects nothing silently: the socket is
     gone from the filesystem *)
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

let test_draining_rejects_new_work () =
  let sock = fresh_sock () in
  let listener = Server.listen (Server.config ~workers:1 (`Unix sock)) in
  let srv = Domain.spawn (fun () -> Server.serve listener) in
  (match Client.connect (`Unix sock) with
   | Error m -> Alcotest.failf "connect: %s" m
   | Ok conn ->
     (* shutdown and new work pipelined on one connection: the work
        arrives after the drain began and must be turned away with a
        typed reject, not dropped on the floor *)
     Client.send_line conn (P.request_line (req ~id:"bye" P.Shutdown));
     Client.send_line conn
       (P.request_line (compile_req ~id:"late" "mm" (matmul_text 16)));
     let bye = roundtrip_of_recv conn in
     Alcotest.(check bool) "shutdown ok" true bye.Client.ok;
     let late = roundtrip_of_recv conn in
     Alcotest.(check bool) "late work rejected" false late.Client.ok;
     (match late.Client.error with
      | Some r -> Alcotest.(check string) "code" "draining" r.P.code
      | None -> Alcotest.fail "reject without error object");
     Client.close conn);
  ignore (Domain.join srv : Server.stats)

(* --- latency metrics --------------------------------------------------- *)

let test_request_metrics_recorded () =
  Emsc_obs.Metrics.reset ();
  Emsc_obs.Metrics.enable ();
  let finally () =
    Emsc_obs.Metrics.disable ();
    Emsc_obs.Metrics.reset ()
  in
  Fun.protect ~finally @@ fun () ->
  with_server ~workers:1 @@ fun addr ->
  (match Client.connect addr with
   | Error m -> Alcotest.failf "connect: %s" m
   | Ok conn ->
     for i = 1 to 5 do
       ignore
         (roundtrip_ok conn
            (compile_req ~id:(string_of_int i) "mm" (matmul_text 16))
          : Client.response)
     done;
     Client.close conn);
  let snap = Emsc_obs.Metrics.snapshot () in
  let histogram name =
    List.find_map
      (fun (s : Emsc_obs.Metrics.sample) ->
        if s.Emsc_obs.Metrics.m_name = name then
          match s.Emsc_obs.Metrics.m_value with
          | Emsc_obs.Metrics.Histogram h -> Some (s.Emsc_obs.Metrics.m_value, h.count)
          | _ -> None
        else None)
      snap.Emsc_obs.Metrics.samples
  in
  (match histogram "serve.queue_ms" with
   | Some (_, count) -> Alcotest.(check int) "queue_ms observations" 5 count
   | None -> Alcotest.fail "no serve.queue_ms histogram");
  match histogram "serve.request_ms" with
  | Some (v, count) ->
    Alcotest.(check int) "request_ms observations" 5 count;
    (* the same log-scale histograms the bench quantile reader uses *)
    (match Emsc_obs.Metrics.quantile v 0.95 with
     | Some q -> Alcotest.(check bool) "p95 is positive" true (q > 0.0)
     | None -> Alcotest.fail "no p95 from the histogram")
  | None -> Alcotest.fail "no serve.request_ms histogram"

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "request round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "typed rejects" `Quick test_parse_rejects ] );
      ( "hot-cache",
        [ Alcotest.test_case "4-domain hammer: exact totals, no tearing"
            `Quick test_cache_hammer_exact_totals;
          Alcotest.test_case "capped hammer stays capped" `Quick
            test_capped_cache_hammer_stays_capped ] );
      ( "bit-identity",
        [ Alcotest.test_case "cold and warm equal direct compile" `Slow
            test_served_compile_bit_identical;
          Alcotest.test_case "4 concurrent clients equal direct compile"
            `Slow test_concurrent_clients_bit_identical ] );
      ( "fuzz",
        [ Alcotest.test_case "malformed lines rejected in-band" `Quick
            test_malformed_requests_rejected_in_band;
          Alcotest.test_case "oversized line rejected, no fd leak" `Slow
            test_oversized_line_rejected_and_no_fd_leak;
          Alcotest.test_case "descriptor past 1024 rejected, daemon survives"
            `Slow test_high_fd_rejected_daemon_survives;
          Alcotest.test_case "listen past 1024 fails cleanly" `Quick
            test_listen_past_fd_limit_fails ] );
      ( "load",
        [ Alcotest.test_case "queue_full backpressure" `Slow
            test_queue_full_backpressure;
          Alcotest.test_case "queue-deadline timeout" `Slow
            test_queue_deadline_timeout ] );
      ( "lifecycle",
        [ Alcotest.test_case "status and graceful drain" `Quick
            test_status_and_drain;
          Alcotest.test_case "draining rejects new work" `Quick
            test_draining_rejects_new_work ] );
      ( "metrics",
        [ Alcotest.test_case "latency histograms recorded" `Quick
            test_request_metrics_recorded ] ) ]
