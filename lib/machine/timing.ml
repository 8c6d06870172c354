type gpu_params = {
  threads : int;
  smem_bytes_per_block : int;
  coalesce_eff : float;
  global_sync : bool;
  double_buffer : bool;
}

let default_params = {
  threads = 256;
  smem_bytes_per_block = 0;
  coalesce_eff = 16.0;
  global_sync = false;
  double_buffer = false;
}

let effective_smem_bytes ~double_buffer ~word_bytes words =
  Hierarchy.effective_words ~double_buffer words * word_bytes

let plan_smem_bytes ~double_buffer ~word_bytes plan env =
  match Emsc_arith.Zint.to_int_exn (Emsc_core.Plan.total_footprint plan env) with
  | words -> Some (effective_smem_bytes ~double_buffer ~word_bytes words)
  | exception _ -> None

(* The launch model reads one edge of the machine: the staging level
   (the scratchpad plans stage into, one per multiprocessor), its edge
   to the home (DRAM bandwidth and latency) and the compute block.
   [Hierarchy.validate] rules out a staging level without a capacity
   or a parent edge on every loaded machine; a hand-built one is
   rejected here, naming the machine. *)
let staging_edge (h : Hierarchy.t) =
  let s = Hierarchy.staging h in
  let bad msg =
    invalid_arg
      (Printf.sprintf "Timing: %s: %s: staging level has no %s"
         (Hierarchy.name h) s.Hierarchy.l_name msg)
  in
  match s.Hierarchy.l_capacity_bytes, s.Hierarchy.l_to_parent with
  | Some cap, Some e -> (s, cap, e)
  | None, _ -> bad "capacity"
  | _, None -> bad "parent edge"

let occupancy h ~smem_bytes_per_block =
  let _, cap, _ = staging_edge h in
  let max_blocks = (Hierarchy.compute h).Hierarchy.c_max_blocks_per_unit in
  if smem_bytes_per_block <= 0 then max_blocks
  else max 1 (min max_blocks (cap / smem_bytes_per_block))

type breakdown = {
  occ : int;
  blocks_per_mp : float;
  warps_in_flight : float;
  pipeline_eff : float;
  t_comp : float;
  t_bw : float;
  t_lat : float;
  t_sync : float;
  t_fence : float;
  t_block : float;
  global_sync_cycles : float;
  launch_cycles : float;
}

let launch_breakdown h (p : gpu_params) (l : Exec.launch) =
  let s, _, e = staging_edge h in
  let m = Hierarchy.compute h in
  let cb = occupancy h ~smem_bytes_per_block:p.smem_bytes_per_block in
  let num_mp = float_of_int s.Hierarchy.l_fanout in
  (* blocks each multiprocessor executes over the launch; concurrent
     blocks (cb) time-share the MP's lanes, so they affect latency
     hiding and pipeline utilization, not aggregate throughput *)
  let blocks_per_mp =
    Float.of_int (int_of_float (Float.ceil (l.Exec.grid /. num_mp)))
  in
  let c = l.Exec.per_block in
  let lanes = float_of_int m.Hierarchy.c_simd_per_unit in
  let warps_in_flight =
    Float.min 24.0
      (float_of_int (p.threads * cb) /. float_of_int m.Hierarchy.c_warp_size)
    |> Float.max 1.0
  in
  (* the G80 pipeline needs ~6 warps resident to cover register and
     smem latencies; below that, issue slots drain *)
  let pipeline_eff = Float.min 1.0 (warps_in_flight /. 6.0) in
  let t_comp =
    ((c.Exec.flops *. m.Hierarchy.c_flop_cycles)
     +. (Exec.total_smem c *. s.Hierarchy.l_access_cycles))
    /. (lanes *. pipeline_eff)
  in
  let gw = Exec.total_global c in
  let bw_per_mp =
    e.Hierarchy.e_bw_words_per_cycle /. num_mp
    *. (p.coalesce_eff /. float_of_int e.Hierarchy.e_coalesce_width)
  in
  let t_bw = gw /. bw_per_mp in
  let latency = e.Hierarchy.e_latency in
  let t_lat = gw /. float_of_int p.threads *. latency /. warps_in_flight in
  let t_sync = c.Exec.syncs *. m.Hierarchy.c_sync_cycles in
  (* each movement phase drains the DRAM pipeline at its barrier —
     unless the kernel double-buffers, overlapping copies with the
     previous sub-tile's compute (the classic scratchpad extension;
     costs twice the buffer space, which the caller reflects in
     smem_bytes_per_block) *)
  let t_fence = if p.double_buffer then 0.0 else c.Exec.fences *. latency in
  let t_block = Float.max t_comp (Float.max t_bw t_lat) +. t_sync +. t_fence in
  let global_sync_cycles =
    if p.global_sync then
      m.Hierarchy.c_global_sync_base
      +. (m.Hierarchy.c_global_sync_per_block *. l.Exec.grid)
    else 0.0
  in
  let launch_cycles =
    (m.Hierarchy.c_launch_overhead_cycles +. global_sync_cycles
     +. (blocks_per_mp *. t_block))
    *. l.Exec.repeat
  in
  { occ = cb; blocks_per_mp; warps_in_flight; pipeline_eff; t_comp; t_bw;
    t_lat; t_sync; t_fence; t_block; global_sync_cycles; launch_cycles }

let launch_cycles h p l = (launch_breakdown h p l).launch_cycles

(* work outside any launch (host-side loops) is not timed: the
   generated kernels put all computation inside block loops *)
let total_cycles h p (r : Exec.result) =
  List.fold_left (fun acc l -> acc +. launch_cycles h p l) 0.0
    r.Exec.launches

let total_ms h p r = Hierarchy.ms_of_cycles h (total_cycles h p r)

(* Cache-baseline timing over a cache-shaped hierarchy: one term per
   simulated level's hits plus the home accesses (test/test_hierarchy.ml
   pins the [core2duo_cache_as_scratchpad] constants and float-op
   order). *)
let cache_total_ms (h : Hierarchy.t) ~flops ~hits ~home_accesses =
  let c = Hierarchy.compute h in
  let cached =
    List.filter
      (fun (l : Hierarchy.level) -> l.Hierarchy.l_assoc <> None)
      (Hierarchy.explicit_levels h)
  in
  let cycles = ref (flops *. c.Hierarchy.c_flop_cycles) in
  List.iteri
    (fun i (l : Hierarchy.level) ->
      if i < Array.length hits then
        cycles := !cycles +. (hits.(i) *. l.Hierarchy.l_access_cycles))
    cached;
  let home = Hierarchy.home h in
  cycles := !cycles +. (home_accesses *. home.Hierarchy.l_access_cycles);
  Hierarchy.ms_of_cycles h !cycles

(* --- machine-readable profiles ----------------------------------------- *)

module J = Emsc_obs.Json

let breakdown_json b =
  J.Obj
    [ ("occupancy", J.Int b.occ);
      ("blocks_per_mp", J.Float b.blocks_per_mp);
      ("warps_in_flight", J.Float b.warps_in_flight);
      ("pipeline_eff", J.Float b.pipeline_eff);
      ("t_comp", J.Float b.t_comp);
      ("t_bw", J.Float b.t_bw);
      ("t_lat", J.Float b.t_lat);
      ("t_sync", J.Float b.t_sync);
      ("t_fence", J.Float b.t_fence);
      ("t_block", J.Float b.t_block);
      ("global_sync_cycles", J.Float b.global_sync_cycles);
      ("launch_cycles", J.Float b.launch_cycles) ]

let launch_json h p (l : Exec.launch) =
  J.Obj
    [ ("grid", J.Float l.Exec.grid);
      ("repeat", J.Float l.Exec.repeat);
      ("per_block", Exec.counters_json l.Exec.per_block);
      ("breakdown", breakdown_json (launch_breakdown h p l)) ]

let params_json p =
  J.Obj
    [ ("threads", J.Int p.threads);
      ("smem_bytes_per_block", J.Int p.smem_bytes_per_block);
      ("coalesce_eff", J.Float p.coalesce_eff);
      ("global_sync", J.Bool p.global_sync);
      ("double_buffer", J.Bool p.double_buffer) ]

let profile_json h p (r : Exec.result) =
  let cycles = total_cycles h p r in
  J.Obj
    [ ("params", params_json p);
      ("launches", J.List (List.map (launch_json h p) r.Exec.launches));
      ("totals", Exec.counters_json r.Exec.totals);
      ("total_cycles", J.Float cycles);
      ("total_ms", J.Float (Hierarchy.ms_of_cycles h cycles)) ]
