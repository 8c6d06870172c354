(* Declarative machine-hierarchy tests: the gtx8800 built-in must
   reproduce the committed launch-model golden values bit for bit
   (machine constants, launch breakdowns on the whole kernel suite,
   total ms) and the legacy CPU cache timing, invalid machines must be
   rejected by name, the JSON description files must round-trip and
   match the built-ins exactly, and placement must degenerate to the
   legacy capacity rule on 2-level machines. *)

open Emsc_machine
open Emsc_kernels
open Emsc_driver

module H = Hierarchy
module P = Placement
module J = Emsc_obs.Json

let machines_dir = "../examples/machines"

(* --- golden: test/golden_timing.txt ------------------------------------ *)

(* the non-comment lines, split on blanks *)
let golden =
  lazy
    (In_channel.with_open_text "golden_timing.txt" In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter_map (fun line ->
          if line = "" || line.[0] = '#' then None
          else Some (String.split_on_char ' ' line)))

let golden_rows kind =
  List.filter_map (function
    | k :: rest when k = kind -> Some rest
    | _ -> None)
    (Lazy.force golden)

(* exact: both sides printed as hex floats *)
let check_hex name expected v =
  Alcotest.(check string) name expected (Printf.sprintf "%h" v)

let test_gtx8800_matches_golden () =
  let s = H.staging H.gtx8800 and c = H.compute H.gtx8800 in
  let e = Option.get s.H.l_to_parent in
  let i = float_of_int in
  let field = function
    | "num_mimd" -> i s.H.l_fanout
    | "simd_per_mimd" -> i c.H.c_simd_per_unit
    | "warp_size" -> i c.H.c_warp_size
    | "smem_bytes" -> i (Option.get s.H.l_capacity_bytes)
    | "word_bytes" -> i s.H.l_word_bytes
    | "clock_mhz" -> c.H.c_clock_mhz
    | "max_blocks_per_mimd" -> i c.H.c_max_blocks_per_unit
    | "flop_cycles" -> c.H.c_flop_cycles
    | "smem_access_cycles" -> s.H.l_access_cycles
    | "global_latency" -> e.H.e_latency
    | "global_bw_words_per_cycle" -> e.H.e_bw_words_per_cycle
    | "coalesce_width" -> i e.H.e_coalesce_width
    | "sync_cycles" -> c.H.c_sync_cycles
    | "global_sync_base" -> c.H.c_global_sync_base
    | "global_sync_per_block" -> c.H.c_global_sync_per_block
    | "launch_overhead_cycles" -> c.H.c_launch_overhead_cycles
    | f -> Alcotest.failf "unknown machine field %s" f
  in
  let rows = golden_rows "machine" in
  Alcotest.(check int) "all 16 fields pinned" 16 (List.length rows);
  List.iter (function
    | [ f; v ] ->
      Alcotest.(check (float 0.0)) f (float_of_string v) (field f)
    | _ -> Alcotest.fail "malformed machine row")
    rows

let breakdown_fields (b : Timing.breakdown) =
  [ ("blocks_per_mp", b.Timing.blocks_per_mp);
    ("warps_in_flight", b.Timing.warps_in_flight);
    ("pipeline_eff", b.Timing.pipeline_eff);
    ("t_comp", b.Timing.t_comp);
    ("t_bw", b.Timing.t_bw);
    ("t_lat", b.Timing.t_lat);
    ("t_sync", b.Timing.t_sync);
    ("t_fence", b.Timing.t_fence);
    ("t_block", b.Timing.t_block);
    ("global_sync_cycles", b.Timing.global_sync_cycles);
    ("launch_cycles", b.Timing.launch_cycles) ]

let test_breakdown_bit_identical () =
  let expected = Hashtbl.create 16 in
  List.iter (function
    | name :: p :: l :: fields -> Hashtbl.replace expected (name, p, l) fields
    | _ -> Alcotest.fail "malformed breakdown row")
    (golden_rows "breakdown");
  let checked = ref 0 in
  List.iter (fun (job : Pipeline.job) ->
    let name = Source.name job.Pipeline.source in
    match Pipeline.compile job with
    | Error e -> Alcotest.failf "%s: %s" name (Frontend.error_message e)
    | Ok c when c.Pipeline.tiled = None -> ()
    | Ok c ->
      let _, result = Runner.simulate c in
      let smem =
        match c.Pipeline.plan with
        | Some plan ->
          Option.value ~default:0
            (Timing.plan_smem_bytes ~double_buffer:false ~word_bytes:4 plan
               Runner.zero_env)
        | None -> 0
      in
      List.iteri (fun pi gp ->
        List.iteri (fun li l ->
          let key = (name, string_of_int pi, string_of_int li) in
          let row = Printf.sprintf "%s %d %d" name pi li in
          match Hashtbl.find_opt expected key with
          | None -> Alcotest.failf "%s: no golden row" row
          | Some golden ->
            incr checked;
            let b = Timing.launch_breakdown H.gtx8800 gp l in
            let actual =
              ("occ", string_of_int b.Timing.occ)
              :: List.map (fun (f, v) -> (f, Printf.sprintf "%h" v))
                   (breakdown_fields b)
            in
            let rec pairs = function
              | f :: v :: rest -> (f, v) :: pairs rest
              | _ -> []
            in
            Alcotest.(check (list (pair string string))) row (pairs golden)
              actual)
          result.Exec.launches)
        [ { Timing.threads = 256; smem_bytes_per_block = smem;
            coalesce_eff = 16.0; global_sync = false; double_buffer = false };
          { Timing.threads = 64; smem_bytes_per_block = 2 * smem;
            coalesce_eff = 4.0; global_sync = true; double_buffer = true } ])
    (Suite.jobs ());
  Alcotest.(check int) "every golden launch checked" (Hashtbl.length expected)
    !checked

let test_total_ms_bit_identical () =
  match Pipeline.compile (Matmul.job ~n:32 ()) with
  | Error e -> Alcotest.fail (Frontend.error_message e)
  | Ok c ->
    let _, result = Runner.simulate c in
    let gp = { Timing.default_params with Timing.threads = 128 } in
    match golden_rows "total_ms" with
    | [ [ "matmul-32"; v ] ] ->
      check_hex "total_ms" v (Timing.total_ms H.gtx8800 gp result)
    | _ -> Alcotest.fail "expected one total_ms row"

(* a hand-built machine that skips [validate] and lacks the staging
   level's capacity or parent edge is rejected by name *)
let test_invalid_machine_rejected () =
  let l =
    { Exec.grid = 1.0; per_block = Exec.fresh (); repeat = 1.0 }
  in
  let with_staging f =
    match H.gtx8800.H.h_levels with
    | [ smem; dram ] ->
      { H.gtx8800 with H.h_name = "broken"; h_levels = [ f smem; dram ] }
    | _ -> assert false
  in
  List.iter (fun (what, h) ->
    match Timing.launch_breakdown h Timing.default_params l with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names the machine: " ^ msg) true
        (String.starts_with ~prefix:"Timing: broken: smem: " msg))
    [ ("no capacity", with_staging (fun s -> { s with H.l_capacity_bytes = None }));
      ("no parent edge", with_staging (fun s -> { s with H.l_to_parent = None })) ]

(* --- cache timing: hierarchy formula = legacy core2duo constants ----- *)

let test_cache_total_ms_formula () =
  let flops = 1.0e6 and l1 = 8.0e5 and l2 = 1.5e5 and mem = 5.0e4 in
  let expected =
    ((((flops *. 2.5) +. (l1 *. 2.5)) +. (l2 *. 18.0)) +. (mem *. 165.0))
    /. (2130.0 *. 1000.0)
  in
  Alcotest.(check (float 0.0)) "legacy core2duo formula" expected
    (Timing.cache_total_ms H.core2duo_cache_as_scratchpad ~flops
       ~hits:[| l1; l2 |] ~home_accesses:mem)

(* --- JSON round-trip and the committed machine files ----------------- *)

let test_json_roundtrip () =
  List.iter (fun (name, h) ->
    match H.of_json (H.to_json h) with
    | Error e -> Alcotest.failf "%s: round-trip failed: %s" name e
    | Ok h' ->
      Alcotest.(check bool) (name ^ " round-trips") true
        (J.equal (H.to_json h) (H.to_json h')))
    H.builtins

let test_machine_files_match_builtins () =
  List.iter (fun (name, h) ->
    let path = Filename.concat machines_dir (name ^ ".json") in
    match H.of_file path with
    | Error e -> Alcotest.failf "%s: %s" path e
    | Ok h' ->
      Alcotest.(check bool) (name ^ ".json matches built-in") true
        (J.equal (H.to_json h) (H.to_json h')))
    H.builtins

let test_load_resolution () =
  (match H.load "gtx8800_3level" with
   | Ok h -> Alcotest.(check string) "builtin name" "gtx8800_3level" (H.name h)
   | Error e -> Alcotest.fail e);
  (match H.load (Filename.concat machines_dir "gtx8800.json") with
   | Ok h -> Alcotest.(check string) "file name" "gtx8800" (H.name h)
   | Error e -> Alcotest.fail e);
  match H.load "no-such-machine" with
  | Ok _ -> Alcotest.fail "unknown machine resolved"
  | Error e ->
    Alcotest.(check bool) "error lists built-ins" true
      (let contains s sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0
       in
       contains e "gtx8800")

let must_error label = function
  | Ok (_ : H.t) -> Alcotest.failf "%s: accepted" label
  | Error (_ : string) -> ()

let test_malformed_machines () =
  must_error "empty object" (H.of_json (J.Obj []));
  must_error "missing file" (H.of_file "/nonexistent/machine.json");
  let parse s =
    match J.of_string s with
    | Ok j -> H.of_json j
    | Error e -> Error e
  in
  must_error "not json" (H.of_file "test_hierarchy.ml");
  must_error "one level"
    (parse
       {|{"schema":"emsc-machine/1","name":"m",
          "compute":{"clock_mhz":1000,"flop_cycles":1,"simd_per_unit":1,
                     "warp_size":1,"max_blocks_per_unit":1,"sync_cycles":0,
                     "global_sync_base":0,"global_sync_per_block":0,
                     "launch_overhead_cycles":0},
          "levels":[{"name":"mem","capacity_bytes":null,"word_bytes":4,
                     "access_cycles":1,"fanout":1}]}|});
  must_error "bounded home (inner level shape in home position)"
    (parse
       {|{"schema":"emsc-machine/1","name":"m",
          "compute":{"clock_mhz":1000,"flop_cycles":1,"simd_per_unit":1,
                     "warp_size":1,"max_blocks_per_unit":1,"sync_cycles":0,
                     "global_sync_base":0,"global_sync_per_block":0,
                     "launch_overhead_cycles":0},
          "levels":[{"name":"smem","capacity_bytes":1024,"word_bytes":4,
                     "access_cycles":1,"fanout":1,
                     "to_parent":{"bw_words_per_cycle":1,"latency":1,
                                  "coalesce_width":1}},
                    {"name":"mem","capacity_bytes":4096,"word_bytes":4,
                     "access_cycles":1,"fanout":1}]}|});
  must_error "inner level without a transfer edge"
    (parse
       {|{"schema":"emsc-machine/1","name":"m",
          "compute":{"clock_mhz":1000,"flop_cycles":1,"simd_per_unit":1,
                     "warp_size":1,"max_blocks_per_unit":1,"sync_cycles":0,
                     "global_sync_base":0,"global_sync_per_block":0,
                     "launch_overhead_cycles":0},
          "levels":[{"name":"smem","capacity_bytes":1024,"word_bytes":4,
                     "access_cycles":1,"fanout":1},
                    {"name":"mem","capacity_bytes":null,"word_bytes":4,
                     "access_cycles":1,"fanout":1}]}|})

(* --- placement ------------------------------------------------------- *)

let test_placement_two_level_degenerates () =
  (* everything in smem; violation iff the total exceeds capacity —
     the legacy single-scratchpad rule *)
  let fits =
    P.place H.gtx8800
      ~footprints:[ ("l_A", "A", 2048); ("l_B", "B", 2048) ]
  in
  Alcotest.(check bool) "fits" true (P.ok fits);
  List.iter (fun (p : P.placed) ->
    Alcotest.(check string) (p.P.p_buffer ^ " at smem") "smem" p.P.p_level)
    fits.P.pl_placed;
  let over =
    P.place H.gtx8800
      ~footprints:[ ("l_A", "A", 2048); ("l_B", "B", 4096) ]
  in
  Alcotest.(check bool) "over capacity" false (P.ok over)

let test_placement_three_level_promotes () =
  (* regs hold 2048 words: the small buffers go innermost, the big one
     falls through to smem, nothing violates *)
  let t =
    P.place H.gtx8800_3level
      ~footprints:
        [ ("l_big", "A", 4000); ("l_s1", "B", 512); ("l_s2", "C", 512) ]
  in
  Alcotest.(check bool) "ok" true (P.ok t);
  let level b =
    match P.find t b with
    | Some p -> p.P.p_level
    | None -> Alcotest.failf "%s unplaced" b
  in
  Alcotest.(check string) "small 1 in regs" "regs" (level "l_s1");
  Alcotest.(check string) "small 2 in regs" "regs" (level "l_s2");
  Alcotest.(check string) "big in smem" "smem" (level "l_big")

let test_placement_double_buffer_doubles () =
  (* 2048+2048 fits single-buffered (= capacity), doubles to 8192 > 4096 *)
  let single =
    P.place H.gtx8800 ~footprints:[ ("l_A", "A", 2048); ("l_B", "B", 2048) ]
  in
  let doubled =
    P.place ~double_buffer:true H.gtx8800
      ~footprints:[ ("l_A", "A", 2048); ("l_B", "B", 2048) ]
  in
  Alcotest.(check bool) "single fits" true (P.ok single);
  Alcotest.(check bool) "doubled does not" false (P.ok doubled);
  Alcotest.(check int) "effective words doubled" 4096
    (match P.find doubled "l_A" with
     | Some p -> p.P.p_effective_words
     | None -> -1)

let test_edge_totals_cross_outward () =
  (* a buffer at level i crosses every edge from i to the home *)
  let t =
    P.place H.gtx8800_3level
      ~footprints:[ ("l_r", "A", 100); ("l_s", "B", 4000) ]
  in
  let totals =
    P.edge_totals H.gtx8800_3level t ~words_of:(fun p -> p.P.p_words)
  in
  Alcotest.(check (list (pair string int)))
    "regs buffer on both edges, smem buffer on the outer one"
    [ ("regs<-smem", 100); ("smem<-dram", 4100) ]
    totals

let test_effective_words () =
  Alcotest.(check int) "plain" 7 (H.effective_words ~double_buffer:false 7);
  Alcotest.(check int) "doubled" 14 (H.effective_words ~double_buffer:true 7)

let () =
  Alcotest.run "hierarchy"
    [ ( "projection",
        [ Alcotest.test_case "gtx8800 = golden machine constants" `Quick
            test_gtx8800_matches_golden;
          Alcotest.test_case "suite launch breakdowns bit-identical" `Quick
            test_breakdown_bit_identical;
          Alcotest.test_case "total ms bit-identical" `Quick
            test_total_ms_bit_identical;
          Alcotest.test_case "invalid machine rejected by name" `Quick
            test_invalid_machine_rejected;
          Alcotest.test_case "cache timing = legacy formula" `Quick
            test_cache_total_ms_formula ] );
      ( "json",
        [ Alcotest.test_case "builtins round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "machine files match builtins" `Quick
            test_machine_files_match_builtins;
          Alcotest.test_case "load resolves names and files" `Quick
            test_load_resolution;
          Alcotest.test_case "malformed descriptions rejected" `Quick
            test_malformed_machines ] );
      ( "placement",
        [ Alcotest.test_case "2-level = legacy capacity rule" `Quick
            test_placement_two_level_degenerates;
          Alcotest.test_case "3-level promotes small buffers" `Quick
            test_placement_three_level_promotes;
          Alcotest.test_case "double buffering doubles footprints" `Quick
            test_placement_double_buffer_doubles;
          Alcotest.test_case "edge totals accumulate outward" `Quick
            test_edge_totals_cross_outward;
          Alcotest.test_case "effective words rule" `Quick
            test_effective_words ] ) ]
