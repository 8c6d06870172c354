(** First-order timing models.

    GPU launch time combines a throughput term (SIMD lanes shared by
    the block's threads), a bandwidth term (device DRAM bandwidth
    partitioned across multiprocessors, derated by coalescing
    efficiency), a latency term (hidden by warps in flight), and
    synchronization costs.  Occupancy follows the paper's Section 5
    rule: concurrent blocks per multiprocessor = scratchpad capacity
    divided by per-block scratchpad need, capped by hardware. *)

type gpu_params = {
  threads : int;              (** threads per block *)
  smem_bytes_per_block : int; (** drives occupancy *)
  coalesce_eff : float;
      (** effective words per global transaction, in
          [1, coalesce_width]; 16 = fully coalesced on the 8800 *)
  global_sync : bool;
      (** charge a cross-block synchronization per launch (kernels
          that need all blocks to finish, e.g. time-tiled stencils) *)
  double_buffer : bool;
      (** overlap movement with compute (double-buffered staging):
          removes the per-phase DRAM drain; the caller must double
          [smem_bytes_per_block] *)
}

val default_params : gpu_params

val effective_smem_bytes : double_buffer:bool -> word_bytes:int -> int -> int
(** Scratchpad bytes a plan of [words] words actually needs per block
    under the given buffering mode: {!Hierarchy.effective_words} (two
    resident windows of every staged buffer when double buffering)
    times [word_bytes].  Capacity checks use this, never the raw plan
    footprint. *)

val plan_smem_bytes :
  double_buffer:bool -> word_bytes:int ->
  Emsc_core.Plan.t -> (string -> Emsc_arith.Zint.t) -> int option
(** Effective per-block scratchpad bytes of a plan under [env] (the
    tile-size valuation), or [None] when a buffer footprint does not
    evaluate to a machine integer. *)

val occupancy : Hierarchy.t -> smem_bytes_per_block:int -> int
(** Concurrent blocks per multiprocessor: the staging level's capacity
    over the per-block need, capped by the compute block's
    [c_max_blocks_per_unit]. *)

type breakdown = {
  occ : int;                 (** concurrent blocks per multiprocessor *)
  blocks_per_mp : float;     (** block waves each MP executes *)
  warps_in_flight : float;
  pipeline_eff : float;
  t_comp : float;            (** compute/smem throughput cycles per block *)
  t_bw : float;              (** DRAM bandwidth cycles per block *)
  t_lat : float;             (** exposed global-latency cycles per block *)
  t_sync : float;            (** intra-block barrier cycles *)
  t_fence : float;           (** movement-phase DRAM drain cycles *)
  t_block : float;           (** max(comp,bw,lat) + sync + fence *)
  global_sync_cycles : float;
  launch_cycles : float;     (** total, incl. overheads and repeats *)
}
(** Where a launch's time goes — the decomposition that determines
    which resource (compute, bandwidth, latency, synchronization)
    bounds the kernel. *)

(** {2 Launch model}

    Reads the staging level (capacity, access cost, fan-out = number
    of multiprocessors), its edge to the home (bandwidth, latency,
    coalescing width) and the compute block of the hierarchy.  These
    raise [Invalid_argument] naming the machine when the staging level
    has no capacity or no parent edge; {!Hierarchy.validate} rules
    both out for every loaded machine.  test/golden_timing.txt pins
    every breakdown field for [Hierarchy.gtx8800] bit for bit. *)

val launch_breakdown : Hierarchy.t -> gpu_params -> Exec.launch -> breakdown

val launch_cycles : Hierarchy.t -> gpu_params -> Exec.launch -> float
(** [= (launch_breakdown h p l).launch_cycles] *)

val total_ms : Hierarchy.t -> gpu_params -> Exec.result -> float
(** Sum of the launches' cycles in milliseconds
    ({!Hierarchy.ms_of_cycles}); host-side work is not timed. *)

val cache_total_ms :
  Hierarchy.t -> flops:float -> hits:float array -> home_accesses:float ->
  float
(** Cache-baseline timing over a cache-shaped hierarchy: [hits.(i)]
    aligns with {!Cache.Sim.hits} (the cache-geometry levels in
    order); each level is charged its [l_access_cycles] per hit, the
    home its own per access. *)

(** {2 Machine-readable profiles} *)

val breakdown_json : breakdown -> Emsc_obs.Json.t
val launch_json : Hierarchy.t -> gpu_params -> Exec.launch -> Emsc_obs.Json.t
val params_json : gpu_params -> Emsc_obs.Json.t

val profile_json : Hierarchy.t -> gpu_params -> Exec.result -> Emsc_obs.Json.t
(** Per-launch counters and timing breakdowns plus run totals; the
    payload of [emsc profile]. *)
