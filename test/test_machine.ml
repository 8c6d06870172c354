(* Machine-layer tests: memory, the cache simulator, the executor's
   counters and sampled fidelity, the staged executor and the
   Fourier–Motzkin reference enumeration against the legacy
   interpreter and LP enumeration, overflow-checked index arithmetic,
   the reference executor's schedule order, and timing-model
   monotonicities. *)

open Emsc_ir
open Emsc_codegen
open Emsc_machine
open Emsc_kernels

let no_params name = failwith ("unexpected parameter " ^ name)

(* --- memory ---------------------------------------------------------------- *)

let test_memory_roundtrip () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.write_global m "A" [| 2; 3 |] 7.5;
  Alcotest.(check (float 0.0)) "read back" 7.5
    (Memory.read_global m "A" [| 2; 3 |]);
  Alcotest.(check (float 0.0)) "other cell untouched" 0.0
    (Memory.read_global m "A" [| 3; 2 |]);
  Alcotest.(check int) "flat index row-major" 11
    (Memory.flat_index m "A" [| 2; 3 |])

let test_memory_bounds () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Memory: A index 4 out of bounds [0,4) at dim 0")
    (fun () -> ignore (Memory.read_global m "A" [| 4; 0 |]))

let test_memory_locals () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.declare_local m "l_A";
  Alcotest.(check bool) "is local" true (Memory.is_local m "l_A");
  Alcotest.(check bool) "global not local" false (Memory.is_local m "A");
  Memory.write_local m "l_A" [| 100; 200 |] 3.0;
  Alcotest.(check (float 0.0)) "sparse local" 3.0
    (Memory.read_local m "l_A" [| 100; 200 |]);
  Alcotest.(check (float 0.0)) "unwritten local is 0" 0.0
    (Memory.read_local m "l_A" [| 0; 0 |])

let test_memory_phantom () =
  let p = Matmul.program ~n:1000 in
  (* phantom: no 1000x1000 allocation, indices ignored *)
  let m = Memory.create_phantom p ~param_env:no_params in
  Memory.write_global m "A" [| 999; 999 |] 1.0;
  Alcotest.(check (float 0.0)) "single cell semantics" 1.0
    (Memory.read_global m "A" [| 0; 0 |])

(* --- cache ------------------------------------------------------------------ *)

let test_cache_basics () =
  let c =
    Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 ~word_bytes:4
  in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Cache.access c 1);
  Alcotest.(check bool) "hit same line end" true (Cache.access c 15);
  Alcotest.(check bool) "next line misses" false (Cache.access c 16);
  let st = Cache.stats c in
  Alcotest.(check (float 0.0)) "hits" 2.0 st.Cache.hits;
  Alcotest.(check (float 0.0)) "misses" 2.0 st.Cache.misses

let test_cache_lru_eviction () =
  (* 1024 B, 64 B lines, 2-way: 8 sets; lines mapping to set 0 are
     word addresses 0, 128, 256, ... *)
  let c =
    Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 ~word_bytes:4
  in
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  (* touch 0 again to make 128 the LRU *)
  Alcotest.(check bool) "0 still resident" true (Cache.access c 0);
  ignore (Cache.access c 256);
  (* 256 evicts 128, not 0 *)
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "128 evicted" false (Cache.access c 128)

let test_cache_hierarchy () =
  let h = Cache.Sim.create Hierarchy.core2duo_cache_as_scratchpad in
  Alcotest.(check int) "two simulated levels" 2 (Cache.Sim.num_levels h);
  Alcotest.(check int) "first access misses to memory" 2 (Cache.Sim.access h 0);
  Alcotest.(check int) "second hits L1" 0 (Cache.Sim.access h 0);
  Alcotest.(check (float 0.0)) "one home access" 1.0
    (Cache.Sim.home_accesses h)

(* --- executor ---------------------------------------------------------------- *)

let v = Ast.var
let i_ = Ast.int_

let test_exec_counters () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  (* plain triple loop *)
  let spec = Array.make 3 Emsc_transform.Tile.no_tiling in
  let ast = Emsc_transform.Tile.generate p spec ~movement:[] in
  let r = Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full ast in
  (* per iteration: 2 flops (add, mul) + write + 3 reads; 64 iterations *)
  Alcotest.(check (float 0.0)) "flops" (float_of_int (64 * 3))
    r.Exec.totals.Exec.flops;
  Alcotest.(check (float 0.0)) "loads" (float_of_int (64 * 3))
    r.Exec.totals.Exec.g_ld;
  Alcotest.(check (float 0.0)) "stores" (float_of_int 64)
    r.Exec.totals.Exec.g_st

let test_exec_guard_and_copy () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.fill m "A" (fun idx -> float_of_int ((10 * idx.(0)) + idx.(1)));
  let ast =
    [ Ast.Guard
        ( [ i_ 1 ],
          [ Ast.Copy
              { dst = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] };
                src = { Ast.array = "A"; indices = [| i_ 2; i_ 3 |] } } ] );
      Ast.Guard
        ( [ i_ (-1) ],
          [ Ast.Copy
              { dst = { Ast.array = "B"; indices = [| i_ 1; i_ 1 |] };
                src = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] } } ] ) ]
  in
  let (_ : Exec.result) =
    Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full ast
  in
  Alcotest.(check (float 0.0)) "guard true executed" 23.0
    (Memory.read_global m "B" [| 0; 0 |]);
  Alcotest.(check (float 0.0)) "guard false skipped" 0.0
    (Memory.read_global m "B" [| 1; 1 |])

let test_sampled_triangle () =
  (* triangular loop: trapezoid sampling must be exact for linearly
     varying trip counts *)
  let p = Matmul.program ~n:4 in
  let mk () = Memory.create p ~param_env:no_params in
  let ast =
    [ Ast.loop_ "i" ~lb:(i_ 0) ~ub:(i_ 29)
        [ Ast.loop_ "j" ~lb:(i_ 0) ~ub:(v "i")
            [ Ast.Copy
                { dst = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] };
                  src = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] } } ] ] ]
  in
  let full =
    Exec.run ~prog:p ~param_env:no_params ~memory:(mk ()) ~mode:Exec.Full ast
  in
  let sampled =
    Exec.run ~prog:p ~param_env:no_params ~memory:(mk ())
      ~mode:(Exec.Sampled 4) ast
  in
  Alcotest.(check (float 0.001)) "triangle loads exact under sampling"
    full.Exec.totals.Exec.g_ld sampled.Exec.totals.Exec.g_ld

let test_launch_detection () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  let ast =
    [ Ast.loop_ "t" ~lb:(i_ 0) ~ub:(i_ 2)
        [ Ast.loop_ ~par:Ast.Block "b" ~lb:(i_ 0) ~ub:(i_ 7)
            [ Ast.Copy
                { dst = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] };
                  src = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] } } ] ] ]
  in
  let r = Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full ast in
  Alcotest.(check int) "three launches" 3 (List.length r.Exec.launches);
  List.iter (fun l ->
    Alcotest.(check (float 0.0)) "grid" 8.0 l.Exec.grid;
    Alcotest.(check (float 0.0)) "per-block load" 1.0 l.Exec.per_block.Exec.g_ld)
    r.Exec.launches

let test_sampled_launch_repeat () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  let ast =
    [ Ast.loop_ "t" ~lb:(i_ 0) ~ub:(i_ 99)
        [ Ast.loop_ ~par:Ast.Block "b" ~lb:(i_ 0) ~ub:(i_ 7)
            [ Ast.Copy
                { dst = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] };
                  src = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] } } ] ] ]
  in
  let r =
    Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:(Exec.Sampled 4) ast
  in
  let total_launches =
    List.fold_left (fun acc l -> acc +. l.Exec.repeat) 0.0 r.Exec.launches
  in
  Alcotest.(check (float 0.001)) "100 dynamic launches" 100.0 total_launches

(* --- reference executor ------------------------------------------------------ *)

let test_reference_schedule_order () =
  (* fig1: S1 at (i,j) must run before S2 at (i,j,k), and both obey
     lexicographic i, j order *)
  let insts =
    Reference.instances Fig1.program ~param_env:no_params
  in
  Alcotest.(check int) "instance count" ((5 * 5) + (5 * 5 * 10))
    (List.length insts);
  (* first instance is S1 at (10,10); the next ten are S2 at (10,10,k) *)
  (match insts with
   | (s, iters) :: rest ->
     Alcotest.(check string) "first is S1" "S1" s.Prog.name;
     Alcotest.(check (list int)) "at (10,10)" [ 10; 10 ]
       (Emsc_linalg.Vec.to_ints_exn iters);
     let s2s = List.filteri (fun i _ -> i < 10) rest in
     List.iter (fun ((s : Prog.stmt), _) ->
       Alcotest.(check string) "then S2" "S2" s.Prog.name)
       s2s
   | [] -> Alcotest.fail "no instances")

(* --- staged executor vs the legacy interpreter ----------------------------- *)

let modes = [ ("full", Exec.Full); ("sampled6", Exec.Sampled 6) ]

let check_kernel (k : Exec_diff.kernel) =
  List.iter (fun (mname, mode) ->
    Exec_diff.check_same (k.Exec_diff.name ^ " " ^ mname)
      (Exec_diff.legacy ~mode k) (Exec_diff.staged ~mode k))
    modes

(* A fixed draw over a fixed index range: a few generated programs
   take minutes to compile, and this keeps the test's cost bounded. *)
let qcheck_staged_gen =
  QCheck.Test.make ~name:"staged == legacy on Gen programs" ~count:40
    (QCheck.int_range 0 39)
    (fun i ->
      List.iter check_kernel (Exec_diff.gen_kernels i);
      true)

let test_staged_suite () = List.iter check_kernel (Exec_diff.suite_kernels ())

(* --- reference enumeration: Fourier–Motzkin vs LP ------------------------ *)

let same_points (s : Prog.stmt) param_values =
  let np = Array.length param_values in
  let lp =
    List.map (Array.map Emsc_arith.Zint.to_int_exn)
      (Legacy_interp.Reference.domain_points s ~np ~param_values)
  in
  let fm = Reference.domain_points s ~param_values in
  Alcotest.(check (list (array int))) (s.Prog.name ^ " points") lp fm

let same_reference name prog param_env =
  let run f =
    let m = Emsc_driver.Runner.prepare ~memory:Emsc_driver.Runner.Pseudorandom ~param_env prog in
    let trace = Buffer.create 1024 in
    let on_global a addr _ = Buffer.add_string trace (a ^ string_of_int addr ^ ";") in
    let c = f m on_global in
    ( Emsc_obs.Json.to_string (Exec.counters_json c),
      Buffer.contents trace,
      List.map (fun (d : Prog.array_decl) ->
        Exec_diff.digest_floats (Memory.global_data m d.Prog.array_name))
        prog.Prog.arrays )
  in
  let lc, lt, la =
    run (fun m on_global ->
      let c = Legacy_interp.Reference.run prog ~param_env m ~on_global () in
      { Exec.flops = c.Legacy_interp.flops; g_ld = c.Legacy_interp.g_ld;
        g_st = c.Legacy_interp.g_st; s_ld = c.Legacy_interp.s_ld;
        s_st = c.Legacy_interp.s_st; syncs = c.Legacy_interp.syncs;
        fences = c.Legacy_interp.fences })
  in
  let nc, nt, na = run (fun m on_global -> Reference.run prog ~param_env m ~on_global ()) in
  Alcotest.(check string) (name ^ " counters") lc nc;
  Alcotest.(check bool) (name ^ " access sequence") true (lt = nt);
  Alcotest.(check (list string)) (name ^ " arrays") la na;
  let insts p = List.map (fun ((s : Prog.stmt), it) -> (s.Prog.id, Array.to_list it)) p in
  Alcotest.(check bool) (name ^ " instance order") true
    (insts (Legacy_interp.Reference.instances prog ~param_env)
     = insts (Reference.instances prog ~param_env))

let qcheck_reference_gen =
  QCheck.Test.make ~name:"FM enumeration == LP enumeration on Gen programs" ~count:40
    (QCheck.int_range 0 999)
    (fun i ->
      let spec = Emsc_check.Gen.generate (Random.State.make [| 11; i |]) in
      let prog = Emsc_check.Gen.materialize spec in
      let param_env = Emsc_check.Gen.param_env spec in
      let values = Array.map param_env prog.Prog.params in
      List.iter (fun s -> same_points s values) prog.Prog.stmts;
      same_reference (Printf.sprintf "gen#%d" i) prog param_env;
      true)

let test_reference_suite () =
  List.iter (fun (name, (c : Emsc_driver.Pipeline.compiled)) ->
    let prog = c.Emsc_driver.Pipeline.prog in
    let env = Emsc_driver.Runner.zero_env in
    List.iter (fun s -> same_points s (Array.map env prog.Prog.params)) prog.Prog.stmts;
    same_reference name prog env)
    (Lazy.force Exec_diff.suite)

(* hand-made domains over one parameter n: a triangle 0 <= j <= i < n
   (parametric, empty at n = 0), a point, a rationally non-empty set
   with no integer point, and a contradiction between parameter-only
   constraints *)
let test_reference_edge_domains () =
  let np = 1 in
  let mk name rows depth =
    Build.stmt ~id:1 ~name ~np ~depth
      ~domain:(Build.domain_rows ~np ~depth rows) ~beta:(List.init (depth + 1) (fun _ -> 0)) ()
  in
  let triangle = mk "triangle" [ [ 1; 0; 0; 0 ]; [ -1; 0; 1; -1 ]; [ 0; 1; 0; 0 ]; [ 1; -1; 0; 0 ] ] 2 in
  let point = mk "point" [ [ 1; 0; -3 ]; [ -1; 0; 3 ] ] 1 in
  let gap = mk "gap" [ [ 2; 0; -1 ]; [ -2; 0; 1 ]; [ 0; 1; 0 ] ] 1 in
  let contradiction = mk "contradiction" [ [ 1; 0; 0 ]; [ -1; 1; 0 ]; [ 0; 1; -5 ] ] 1 in
  let depth0 = mk "depth0" [ [ 1; -2 ] ] 0 in
  List.iter (fun n ->
    let v = [| Emsc_arith.Zint.of_int n |] in
    List.iter (fun s -> same_points s v) [ triangle; point; gap; contradiction; depth0 ])
    [ 0; 1; 2; 3; 7 ];
  Alcotest.(check int) "triangle at n=4" 10
    (List.length (Reference.domain_points triangle ~param_values:[| Emsc_arith.Zint.of_int 4 |]));
  Alcotest.(check int) "empty at n=0" 0
    (List.length (Reference.domain_points triangle ~param_values:[| Emsc_arith.Zint.zero |]))

(* --- overflow-checked native arithmetic ---------------------------------- *)

let z = Emsc_arith.Zint.of_int
let zc n = Ast.Const (z n)
let copy_at dst_idx =
  Ast.Copy
    { dst = { Ast.array = "A"; indices = [| dst_idx |] };
      src = { Ast.array = "B"; indices = [| i_ 0 |] } }

let near_max_prog =
  { Prog.params = [||]; arrays = [ Build.array1 "A" 16 ~np:0; Build.array1 "B" 1 ~np:0 ];
    stmts = [] }

let loop_ ?(step = 1) var lb ub body =
  Ast.Loop { Ast.var; lb; ub; step = z step; par = Ast.Seq; body }

(* both executors on one AST: the same cells written, or the same
   exception *)
let outcome run =
  let m = Memory.create near_max_prog ~param_env:no_params in
  Memory.write_global m "B" [| 0 |] 1.0;
  match run m with
  | (_ : Exec.counters) ->
    Ok (List.filter (fun i -> Memory.read_global m "A" [| i |] <> 0.0) (List.init 16 Fun.id))
  | exception e -> Error (Printexc.to_string e)

let both ?(mode = Exec.Full) ast =
  let staged =
    outcome (fun m ->
      (Exec.run ~prog:near_max_prog ~param_env:no_params ~memory:m ~mode ast).Exec.totals)
  in
  let legacy =
    outcome (fun m ->
      let r =
        Legacy_interp.run ~prog:near_max_prog ~param_env:no_params ~memory:m
          ~mode:(match mode with Exec.Full -> Legacy_interp.Full | Exec.Sampled n -> Legacy_interp.Sampled n)
          ast
      in
      ignore r;
      Exec.fresh ())
  in
  let show = function
    | Ok l -> "cells " ^ String.concat "," (List.map string_of_int l)
    | Error e -> "raised " ^ e
  in
  Alcotest.(check string) "staged == legacy" (show legacy) (show staged);
  staged

let test_overflow_near_max_int () =
  let top = max_int - 10 in
  (* strided loop ending at max_int: no wrap on the last increment *)
  Alcotest.(check bool) "stride 3 up to max_int" true
    (both [ loop_ ~step:3 "i" (zc top) (zc max_int) [ copy_at Ast.(Sub (Var "i", Const (z top))) ] ]
     = Ok [ 0; 3; 6; 9 ]);
  (* stride max_int: two iterations, 0 and max_int *)
  Alcotest.(check bool) "stride max_int" true
    (both [ loop_ ~step:max_int "i" (zc 0) (zc max_int)
              [ copy_at (Ast.Fdiv (Ast.Var "i", z max_int)) ] ]
     = Ok [ 0; 1 ]);
  (* 2i - i overflows on the way but fits at the end: exact *)
  Alcotest.(check bool) "intermediate overflow recovers" true
    (both [ loop_ "i" (zc top) (zc (top + 2))
              [ copy_at Ast.(Sub (Sub (Mul (z 2, Var "i"), Var "i"), Const (z top))) ] ]
     = Ok [ 0; 1; 2 ]);
  (* sampled: first and last iterations of a loop ending at max_int *)
  Alcotest.(check bool) "sampled last iteration" true
    (both ~mode:(Exec.Sampled 3) [ loop_ ~step:2 "i" (zc top) (zc max_int)
              [ copy_at Ast.(Sub (Var "i", Const (z top))) ] ]
     = Ok [ 0; 10 ]);
  (* a guard whose value does not fit still decides exactly *)
  Alcotest.(check bool) "guard beyond max_int" true
    (both [ loop_ "i" (zc top) (zc top)
              [ Ast.Guard ([ Ast.Add (Ast.Var "i", zc max_int) ], [ copy_at (i_ 5) ]) ] ]
     = Ok [ 5 ]);
  let fails = Error (Printexc.to_string (Failure "Zint.to_int_exn: value does not fit in int")) in
  (* an index that does not fit raises Zint.to_int_exn's Failure *)
  Alcotest.(check bool) "index overflow raises" true
    (both [ loop_ "i" (zc top) (zc top) [ copy_at (Ast.Mul (z 2, Ast.Var "i")) ] ] = fails);
  (* so does a trip count that does not fit *)
  Alcotest.(check bool) "trip overflow raises" true
    (both [ loop_ "i" (zc min_int) (zc max_int) [ copy_at (i_ 0) ] ] = fails)

(* --- timing model ------------------------------------------------------------- *)

let test_occupancy () =
  let g = Hierarchy.gtx8800 in
  Alcotest.(check int) "no smem -> max blocks" 8
    (Timing.occupancy g ~smem_bytes_per_block:0);
  Alcotest.(check int) "16KB -> 1 block" 1
    (Timing.occupancy g ~smem_bytes_per_block:16384);
  Alcotest.(check int) "4KB -> 4 blocks" 4
    (Timing.occupancy g ~smem_bytes_per_block:4096);
  Alcotest.(check int) "1KB -> capped at 8" 8
    (Timing.occupancy g ~smem_bytes_per_block:1024)

let test_timing_monotonic_in_traffic () =
  let g = Hierarchy.gtx8800 in
  let params = Timing.default_params in
  let mk gld =
    { Exec.grid = 32.0;
      per_block =
        { Exec.flops = 1000.0; g_ld = gld; g_st = 0.0; s_ld = 0.0;
          s_st = 0.0; syncs = 0.0; fences = 0.0 };
      repeat = 1.0 }
  in
  let t1 = Timing.launch_cycles g params (mk 1000.0) in
  let t2 = Timing.launch_cycles g params (mk 100000.0) in
  Alcotest.(check bool) "more traffic, more time" true (t2 > t1)

let test_timing_repeat_scales () =
  let g = Hierarchy.gtx8800 in
  let params = Timing.default_params in
  let l =
    { Exec.grid = 16.0;
      per_block =
        { Exec.flops = 500.0; g_ld = 10.0; g_st = 10.0; s_ld = 0.0;
          s_st = 0.0; syncs = 2.0; fences = 1.0 };
      repeat = 1.0 }
  in
  let t1 = Timing.launch_cycles g params l in
  let t5 = Timing.launch_cycles g params { l with Exec.repeat = 5.0 } in
  Alcotest.(check (float 0.001)) "repeat multiplies" (5.0 *. t1) t5

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "bounds check" `Quick test_memory_bounds;
          Alcotest.test_case "locals" `Quick test_memory_locals;
          Alcotest.test_case "phantom" `Quick test_memory_phantom;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "hierarchy" `Quick test_cache_hierarchy;
        ] );
      ( "exec",
        [
          Alcotest.test_case "counters" `Quick test_exec_counters;
          Alcotest.test_case "guards and copies" `Quick test_exec_guard_and_copy;
          Alcotest.test_case "sampled triangle exact" `Quick
            test_sampled_triangle;
          Alcotest.test_case "launch detection" `Quick test_launch_detection;
          Alcotest.test_case "sampled launch repeat" `Quick
            test_sampled_launch_repeat;
        ] );
      ( "reference",
        [
          Alcotest.test_case "schedule order" `Quick
            test_reference_schedule_order;
          QCheck_alcotest.to_alcotest qcheck_reference_gen;
          Alcotest.test_case "suite: FM == LP" `Quick test_reference_suite;
          Alcotest.test_case "edge domains: FM == LP" `Quick
            test_reference_edge_domains;
        ] );
      ( "staged",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
            qcheck_staged_gen;
          Alcotest.test_case "suite == legacy" `Quick test_staged_suite;
          Alcotest.test_case "overflow near max_int" `Quick
            test_overflow_near_max_int;
        ] );
      ( "timing",
        [
          Alcotest.test_case "occupancy" `Quick test_occupancy;
          Alcotest.test_case "traffic monotonic" `Quick
            test_timing_monotonic_in_traffic;
          Alcotest.test_case "repeat scales" `Quick test_timing_repeat_scales;
        ] );
    ]
