open Emsc_arith
open Emsc_codegen
open Emsc_machine
module Ev = Emsc_obs.Events

type policy = Static | Work_stealing

type cfg = {
  jobs : int;
  policy : policy;
  double_buffer : bool;
  track_ownership : bool;
  capacity_words : int option;
  max_concurrent_blocks : int option;
  block_words : int;
  inter_tile_reuse : bool;
}

let default_cfg ~jobs =
  { jobs = max 1 jobs; policy = Static; double_buffer = false;
    track_ownership = false; capacity_words = None;
    max_concurrent_blocks = None; block_words = 0;
    inter_tile_reuse = false }

exception Ownership_violation of string
exception Runtime_error of string

(* ----------------------------------------------------------------- *)
(* Phase splitting                                                    *)

let rec is_movement (s : Ast.stm) =
  match s with
  | Ast.Copy _ | Ast.Comment _ -> true
  | Ast.Guard (_, body) -> List.for_all is_movement body
  | Ast.Loop l -> List.for_all is_movement l.Ast.body
  | Ast.Sync | Ast.Fence | Ast.Stmt_call _ -> false

let rec has_copy (s : Ast.stm) =
  match s with
  | Ast.Copy _ -> true
  | Ast.Guard (_, body) -> List.exists has_copy body
  | Ast.Loop l -> List.exists has_copy l.Ast.body
  | Ast.Sync | Ast.Fence | Ast.Stmt_call _ | Ast.Comment _ -> false

(* The tiler brackets hoisted movement with fences:
   [ins @ (Fence :: core) @ (Fence :: outs)].  Recover the three
   phases from the outermost fences; each fence travels with its
   movement phase so phase counter sums equal the unsplit body's. *)
let pipeline_phases (body : Ast.stm list) =
  let arr = Array.of_list body in
  let n = Array.length arr in
  let fences =
    List.filter (fun i -> arr.(i) = Ast.Fence) (List.init n Fun.id)
  in
  match fences with
  | [] -> None
  | first :: _ ->
    let last = List.fold_left max first fences in
    let sub lo hi = Array.to_list (Array.sub arr lo (max 0 (hi - lo))) in
    let pre = sub 0 first in
    let post = sub (last + 1) n in
    let pre_ok =
      pre <> [] && List.for_all is_movement pre && List.exists has_copy pre
    in
    let post_ok =
      post <> [] && List.for_all is_movement post && List.exists has_copy post
    in
    if pre_ok && post_ok && first < last then
      Some (pre @ [ Ast.Fence ], sub (first + 1) last, Ast.Fence :: post)
    else if pre_ok then Some (pre @ [ Ast.Fence ], sub (first + 1) n, [])
    else if post_ok && first = last then
      Some ([], sub 0 last, Ast.Fence :: post)
    else None

(* ----------------------------------------------------------------- *)
(* Launch discovery and task enumeration                              *)

let rec contains_block (s : Ast.stm) =
  match s with
  | Ast.Loop l -> l.Ast.par = Ast.Block || List.exists contains_block l.Ast.body
  | Ast.Guard (_, body) -> List.exists contains_block body
  | Ast.Copy _ | Ast.Sync | Ast.Fence | Ast.Stmt_call _ | Ast.Comment _ ->
    false

(* A name under inner-first [bindings] (innermost shadows), else
   under [outer]. *)
let lookup bindings outer n =
  match List.assoc_opt n bindings with Some v -> v | None -> outer n

(* [f] on each value of [l]'s variable in order — lb, lb+step, ... up
   to ub, bounds evaluated under [look] — in exact [Zint] arithmetic. *)
let iter_range look (l : Ast.loop) f =
  let lb = Ast.eval look l.Ast.lb and ub = Ast.eval look l.Ast.ub in
  if Zint.compare lb ub <= 0 then begin
    let trip =
      Zint.to_int_exn
        (Zint.add (Zint.fdiv (Zint.sub ub lb) l.Ast.step) Zint.one)
    in
    let v = ref lb in
    for _ = 1 to trip do
      f !v;
      v := Zint.add !v l.Ast.step
    done
  end

(* Mirror the executor's launch shape: peel the outermost chain of
   singleton Block loops, evaluating each level's bounds under the
   accumulated bindings (then [outer]), and emit one task per grid
   point in sequential order.  Bindings are inner-first. *)
let enumerate_tasks outer (l : Ast.loop) =
  let tasks = ref [] in
  let rec go bindings (l : Ast.loop) =
    iter_range (lookup bindings outer) l (fun v ->
      let b = (l.Ast.var, v) :: bindings in
      match l.Ast.body with
      | [ Ast.Loop ({ par = Ast.Block; _ } as l') ] -> go b l'
      | body -> tasks := (b, body) :: !tasks)
  in
  go [] l;
  Array.of_list (List.rev !tasks)

(* ----------------------------------------------------------------- *)
(* Worker pool: [jobs] domains, one dispatched closure per launch     *)

module Pool = struct
  type t = {
    jobs : int;
    m : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable epoch : int;
    mutable work : (int -> unit) option;
    mutable remaining : int;
    mutable stop : bool;
    mutable error : exn option;
    mutable domains : unit Domain.t array;
  }

  let worker p w () =
    let rec loop my_epoch =
      Mutex.lock p.m;
      while (not p.stop) && p.epoch = my_epoch do
        Condition.wait p.work_cv p.m
      done;
      if p.stop then Mutex.unlock p.m
      else begin
        let e = p.epoch in
        let f = Option.get p.work in
        Mutex.unlock p.m;
        (try f w
         with exn ->
           Mutex.lock p.m;
           if p.error = None then p.error <- Some exn;
           Mutex.unlock p.m);
        Mutex.lock p.m;
        p.remaining <- p.remaining - 1;
        if p.remaining = 0 then Condition.broadcast p.done_cv;
        Mutex.unlock p.m;
        loop e
      end
    in
    loop 0

  let create jobs =
    let p =
      { jobs; m = Mutex.create (); work_cv = Condition.create ();
        done_cv = Condition.create (); epoch = 0; work = None;
        remaining = 0; stop = false; error = None; domains = [||] }
    in
    p.domains <- Array.init jobs (fun w -> Domain.spawn (worker p w));
    p

  (* run [f 0 .. f (jobs-1)] to completion; re-raise the first worker
     exception *)
  let dispatch p f =
    Mutex.lock p.m;
    p.work <- Some f;
    p.remaining <- p.jobs;
    p.error <- None;
    p.epoch <- p.epoch + 1;
    Condition.broadcast p.work_cv;
    while p.remaining > 0 do
      Condition.wait p.done_cv p.m
    done;
    let err = p.error in
    Mutex.unlock p.m;
    match err with Some e -> raise e | None -> ()

  let shutdown p =
    Mutex.lock p.m;
    p.stop <- true;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
end

(* ----------------------------------------------------------------- *)
(* Debug write-ownership tracking                                     *)

type tracker = {
  tr_m : Mutex.t;
  writers : (int, int) Hashtbl.t;  (* global word address -> block *)
  mutable violation : string option;
}

let fresh_tracker () =
  { tr_m = Mutex.create (); writers = Hashtbl.create 1024; violation = None }

let tracker_record tr block arr addr kind =
  Mutex.lock tr.tr_m;
  (match kind with
   | `St -> (
     match Hashtbl.find_opt tr.writers addr with
     | Some other when other <> block ->
       if tr.violation = None then
         tr.violation <-
           Some
             (Printf.sprintf
                "blocks %d and %d of one launch both write %s (word %d)"
                other block arr addr)
     | _ -> Hashtbl.replace tr.writers addr block)
   | `Ld -> (
     match Hashtbl.find_opt tr.writers addr with
     | Some other when other <> block ->
       if tr.violation = None then
         tr.violation <-
           Some
             (Printf.sprintf
                "block %d reads %s (word %d) written by block %d in the same \
                 launch"
                block arr addr other)
     | _ -> ()));
  Mutex.unlock tr.tr_m

(* ----------------------------------------------------------------- *)
(* Movement accounting (reduced on the main domain)                   *)

type dma_acc = {
  mutable acc_copies : float;
  acc_in : (string, float ref) Hashtbl.t;
  acc_out : (string, float ref) Hashtbl.t;
}

let fresh_acc () =
  { acc_copies = 0.; acc_in = Hashtbl.create 4; acc_out = Hashtbl.create 4 }

let acc_add acc (d : Exec.block_dma) =
  let bump tbl (name, words) =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r +. words
    | None -> Hashtbl.replace tbl name (ref words)
  in
  acc.acc_copies <- acc.acc_copies +. d.Exec.copies;
  List.iter (bump acc.acc_in) d.Exec.moved_in;
  List.iter (bump acc.acc_out) d.Exec.moved_out

let acc_dma acc : Exec.block_dma =
  let sorted tbl =
    Hashtbl.fold (fun n r l -> (n, !r) :: l) tbl [] |> List.sort compare
  in
  { Exec.copies = acc.acc_copies; moved_in = sorted acc.acc_in;
    moved_out = sorted acc.acc_out }

(* per-channel transfer statistics; each worker owns its own slot, the
   launch barrier publishes them to the main domain *)
type chan_stat = {
  mutable in_words : float;
  mutable out_words : float;
  mutable transfers : float;
}

(* ----------------------------------------------------------------- *)
(* The backend                                                        *)

type rt = {
  cfg : cfg;
  session : Exec.session;
  param_env : string -> Zint.t;
  memory : Memory.t;
  apool : Arena.pool;
  wpool : Pool.t;
  channels : Dma.channel array;  (* empty unless double_buffer *)
  collect_dma : bool;
  user_hook : (string -> int -> [ `Ld | `St ] -> unit) option;
  hook_m : Mutex.t;
  totals : Exec.counters;
  run_dma : dma_acc;
  chan_stats : chan_stat array;
  ev : Ev.ring array option;
      (* per-worker exec rings; [None] when events are disabled, so
         the hot path tests one option and allocates nothing *)
  mutable launch_seq : int;
  mutable launches : Exec.launch list;
  mutable blocks_run : int;
}

let ev_ring rt w = match rt.ev with Some a -> Some a.(w) | None -> None

let sum_words moved = List.fold_left (fun a (_, w) -> a +. w) 0.0 moved

let block_hook rt tracker i =
  match (tracker, rt.user_hook) with
  | None, None -> None
  | _ ->
    Some
      (fun arr addr kind ->
        (match rt.user_hook with
         | Some f ->
           Mutex.lock rt.hook_m;
           f arr addr kind;
           Mutex.unlock rt.hook_m
         | None -> ());
        match tracker with
        | Some tr -> tracker_record tr i arr addr kind
        | None -> ())

let acquire_arena ?er rt =
  let res =
    match er with
    | Some r when Ev.enabled () ->
      (* records the wait for pool capacity; ~0-length when the pool
         has room immediately *)
      let t0 = Ev.now () in
      let res = Arena.acquire rt.apool ~words:rt.cfg.block_words in
      Ev.emit r ~t0 (Ev.Idle `Arena);
      res
    | _ -> Arena.acquire rt.apool ~words:rt.cfg.block_words
  in
  match res with
  | Ok a -> a
  | Error e -> raise (Runtime_error (Arena.error_message e))

let merge_outcomes (a : Exec.block_outcome option)
    (b : Exec.block_outcome option) (c : Exec.block_outcome option) =
  let acc = fresh_acc () in
  let counters = Exec.fresh () in
  List.iter
    (function
      | None -> ()
      | Some (o : Exec.block_outcome) ->
        Exec.add_into o.Exec.b_counters counters;
        acc_add acc o.Exec.b_dma)
    [ a; b; c ];
  (counters, acc_dma acc)

type launch_slots = {
  launch_id : int;  (* tags events so the report can group by launch *)
  tasks : ((string * Zint.t) list * Ast.stm list) array;
  values : int array array;
      (* per task, the staged code's bound values: host scope outer
         first, then the block chain *)
  in_slots : Exec.block_outcome option array;
  core_slots : Exec.block_outcome option array;
  out_slots : Exec.block_outcome option array;
  chan_of : int array;
}

let run_phase rt st hook i ~memory code =
  Exec.run_block code ~memory ?on_global:(hook i) ~collect_dma:rt.collect_dma
    st.values.(i)

(* run one block body in a caller-supplied arena *)
let exec_task_in_arena rt st hook body w i arena =
  let er = ev_ring rt w in
  (match er with
   | Some r when Ev.enabled () ->
     let t0 = Ev.now () in
     st.core_slots.(i) <-
       Some (run_phase rt st hook i ~memory:(Arena.memory arena) body);
     Ev.emit r ~t0
       (Ev.Block { launch = st.launch_id; block = i; phase = Ev.Whole })
   | _ ->
     st.core_slots.(i) <-
       Some (run_phase rt st hook i ~memory:(Arena.memory arena) body));
  st.chan_of.(i) <- w

(* simple path: the whole block body runs on the worker in a fresh
   arena *)
let exec_task_plain rt st hook body w i =
  let er = ev_ring rt w in
  let arena = acquire_arena ?er rt in
  Fun.protect ~finally:(fun () -> Arena.release arena) @@ fun () ->
  exec_task_in_arena rt st hook body w i arena

(* inter-tile reuse path: tasks are partitioned into chains (runs of
   consecutive blocks that differ only in the innermost block origin);
   a whole chain executes on one worker in ONE arena, so local buffers
   — and in particular the resident slabs the plan's delta guards rely
   on — survive from block to block.  The arena is released (locals
   cleared) only at chain boundaries; a fresh chain therefore always
   starts from a clean scratchpad and its first block's full move-in.
   Assignment is chain-static ([chain mod jobs]): stealing mid-chain
   would break residency, and the barrier reduction keeps counter
   totals bit-identical regardless of worker count anyway. *)
let exec_tasks_chained rt st hook body chain_id w =
  let n = Array.length st.tasks in
  let jobs = rt.wpool.Pool.jobs in
  let er = ev_ring rt w in
  let arena = ref None in
  let release_current () =
    match !arena with
    | Some a ->
      arena := None;
      Arena.release a
    | None -> ()
  in
  Fun.protect ~finally:release_current @@ fun () ->
  let prev_chain = ref (-1) in
  for i = 0 to n - 1 do
    let c = chain_id.(i) in
    if c mod jobs = w then begin
      if c <> !prev_chain then begin
        release_current ();
        arena := Some (acquire_arena ?er rt);
        prev_chain := c
      end;
      exec_task_in_arena rt st hook body w i (Option.get !arena)
    end
  done

(* Chains are contiguous in sequential task order because
   [enumerate_tasks] walks the block-loop chain in lexicographic
   order; task bindings are inner-first, so two consecutive tasks
   belong to one chain exactly when their binding TAILS (everything
   but the innermost origin) agree. *)
let chain_ids tasks =
  let n = Array.length tasks in
  let ids = Array.make n 0 in
  let same_tail a b =
    match (a, b) with
    | _ :: ta, _ :: tb ->
      (try
         List.for_all2
           (fun (na, va) (nb, vb) ->
             String.equal na nb && Zint.compare va vb = 0)
           ta tb
       with Invalid_argument _ -> false)
    | _ -> false
  in
  for i = 1 to n - 1 do
    let ba, _ = tasks.(i - 1) and bb, _ = tasks.(i) in
    ids.(i) <- (if same_tail ba bb then ids.(i - 1) else ids.(i - 1) + 1)
  done;
  ids

(* double-buffered path: the worker's DMA channel carries the move
   phases; block j+1's move-in is staged while block j computes *)
let exec_tasks_pipelined rt st hook (ins, core, outs) w next_task =
  let chan = rt.channels.(w) in
  let er = ev_ring rt w in
  let events_on = rt.ev <> None in
  let stage i arena =
    let run () =
      st.in_slots.(i) <-
        Some (run_phase rt st hook i ~memory:(Arena.memory arena) ins)
    in
    let t =
      if events_on then
        Dma.submit chan run ~event:(fun () ->
          let words =
            match st.in_slots.(i) with
            | Some o -> sum_words o.Exec.b_dma.Exec.moved_in
            | None -> 0.0
          in
          Ev.Dma_transfer
            { launch = st.launch_id; block = i; dir = `In; words })
      else Dma.submit chan run
    in
    (i, arena, t)
  in
  let out_tickets = ref [] in
  let rec go (i, arena, tin) =
    let next =
      match next_task () with
      | None -> None
      | Some j -> (
        (* opportunistic prefetch: skip when the pool is full now *)
        match Arena.try_acquire rt.apool ~words:rt.cfg.block_words with
        | Some a -> Some (`Staged (stage j a))
        | None -> Some (`Plain j))
    in
    (match er with
     | Some r when Ev.enabled () ->
       let t0 = Ev.now () in
       Dma.await tin;
       Ev.emit r ~t0 (Ev.Dma_wait { launch = st.launch_id; block = i })
     | _ -> Dma.await tin);
    (match er with
     | Some r when Ev.enabled () ->
       let t0 = Ev.now () in
       st.core_slots.(i) <-
         Some (run_phase rt st hook i ~memory:(Arena.memory arena) core);
       Ev.emit r ~t0
         (Ev.Block { launch = st.launch_id; block = i; phase = Ev.Compute })
     | _ ->
       st.core_slots.(i) <-
         Some (run_phase rt st hook i ~memory:(Arena.memory arena) core));
    st.chan_of.(i) <- w;
    let run_out () =
      Fun.protect ~finally:(fun () -> Arena.release arena) @@ fun () ->
      st.out_slots.(i) <-
        Some (run_phase rt st hook i ~memory:(Arena.memory arena) outs)
    in
    let tout =
      if events_on then
        Dma.submit chan run_out ~event:(fun () ->
          let words =
            match st.out_slots.(i) with
            | Some o -> sum_words o.Exec.b_dma.Exec.moved_out
            | None -> 0.0
          in
          Ev.Dma_transfer
            { launch = st.launch_id; block = i; dir = `Out; words })
      else Dma.submit chan run_out
    in
    out_tickets := tout :: !out_tickets;
    match next with
    | Some (`Staged s) -> go s
    | Some (`Plain j) -> go (stage j (acquire_arena ?er rt))
    | None -> ()
  in
  (match next_task () with
   | None -> ()
   | Some i -> go (stage i (acquire_arena ?er rt)));
  List.iter Dma.await !out_tickets

let exec_launch rt host_bindings (l : Ast.loop) =
  (* host bindings are inner-first while walking (innermost shadows);
     the staged code binds them outer-first, later names shadowing *)
  let tasks = enumerate_tasks (lookup host_bindings rt.param_env) l in
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let module J = Emsc_obs.Json in
    Emsc_obs.Prof.probe "runtime.launch"
      ~args:
        [ ("grid", J.Float (float_of_int n));
          ("jobs", J.Int rt.cfg.jobs);
          ( "policy",
            J.Str
              (if rt.cfg.inter_tile_reuse then "chain-static"
               else
                 match rt.cfg.policy with
                 | Static -> "static"
                 | Work_stealing -> "work-stealing") ) ]
    @@ fun () ->
    let launch_id = rt.launch_seq in
    rt.launch_seq <- launch_id + 1;
    let host = List.rev host_bindings in
    let scope (b, _) = host @ List.rev b in
    let stage = Exec.stage rt.session ~bound:(List.map fst (scope tasks.(0))) in
    let _, body0 = tasks.(0) in
    let st =
      { launch_id; tasks;
        values =
          Array.map (fun t ->
            Array.of_list (List.map (fun (_, v) -> Zint.to_int_exn v) (scope t)))
            tasks;
        in_slots = Array.make n None; core_slots = Array.make n None;
        out_slots = Array.make n None; chan_of = Array.make n 0 }
    in
    let tracker = if rt.cfg.track_ownership then Some (fresh_tracker ()) else None in
    let hook = block_hook rt tracker in
    (* residency needs the plain path: the pipelined executor releases
       each block's arena after its move-out, which would wipe the
       resident slab between blocks of a chain *)
    let code =
      match
        if
          rt.cfg.double_buffer && (not rt.cfg.inter_tile_reuse)
          && Array.length rt.channels > 0
        then pipeline_phases body0
        else None
      with
      | Some (ins, core, outs) -> `Phased (stage ins, stage core, stage outs)
      | None -> `Whole (stage body0)
    in
    (* the task source is built once per launch — with Work_stealing
       the deques must be shared by every worker *)
    let next_task =
      match rt.cfg.policy with
      | Static ->
        fun w ->
          let k = ref w in
          fun () ->
            if !k < n then begin
              let i = !k in
              k := !k + rt.wpool.Pool.jobs;
              Some i
            end
            else None
      | Work_stealing ->
        let jobs = rt.wpool.Pool.jobs in
        let chunk = (n + jobs - 1) / jobs in
        let deques =
          Array.init jobs (fun v ->
            Deque.of_range ~lo:(min n (v * chunk)) ~hi:(min n ((v + 1) * chunk)))
        in
        fun w () ->
          match Deque.next deques.(w) with
          | Some i -> Some i
          | None ->
            let record victim ok =
              match ev_ring rt w with
              | Some r when Ev.enabled () ->
                let t = Ev.now () in
                Ev.emit r ~t0:t ~t1:t (Ev.Steal { victim; ok })
              | _ -> ()
            in
            let rec scan k =
              if k = jobs then None
              else begin
                let victim = (w + k) mod jobs in
                match Deque.steal deques.(victim) with
                | Some i ->
                  record victim true;
                  Some i
                | None ->
                  record victim false;
                  scan (k + 1)
              end
            in
            scan 1
    in
    let chains =
      if rt.cfg.inter_tile_reuse then Some (chain_ids tasks) else None
    in
    Pool.dispatch rt.wpool (fun w ->
      match (code, chains) with
      | `Phased p, _ -> exec_tasks_pipelined rt st hook p w (next_task w)
      | `Whole body, Some chain_id -> exec_tasks_chained rt st hook body chain_id w
      | `Whole body, None ->
        let next = next_task w in
        let rec drain () =
          match next () with
          | None -> ()
          | Some i ->
            exec_task_plain rt st hook body w i;
            drain ()
        in
        drain ());
    (match tracker with
     | Some { violation = Some msg; _ } -> raise (Ownership_violation msg)
     | _ -> ());
    (* barrier reduction, in block order: exact for the integer-valued
       counters, so totals are independent of jobs and policy *)
    let delta = Exec.fresh () in
    for i = 0 to n - 1 do
      let c, dma =
        merge_outcomes st.in_slots.(i) st.core_slots.(i) st.out_slots.(i)
      in
      Exec.add_into c delta;
      acc_add rt.run_dma dma;
      let cs = rt.chan_stats.(st.chan_of.(i)) in
      List.iter (fun (_, words) -> cs.in_words <- cs.in_words +. words)
        dma.Exec.moved_in;
      List.iter (fun (_, words) -> cs.out_words <- cs.out_words +. words)
        dma.Exec.moved_out;
      if dma.Exec.copies > 0.0 then cs.transfers <- cs.transfers +. 1.0
    done;
    Exec.add_into delta rt.totals;
    rt.blocks_run <- rt.blocks_run + n;
    Emsc_obs.Prof.add "launch.flops" delta.Exec.flops;
    Emsc_obs.Prof.add "launch.global" (Exec.total_global delta);
    Emsc_obs.Prof.add "launch.smem" (Exec.total_smem delta);
    Emsc_obs.Prof.add "launch.syncs" delta.Exec.syncs;
    let grid = float_of_int n in
    rt.launches <-
      { Exec.grid; per_block = Exec.scale_counters delta (1.0 /. grid);
        repeat = 1.0 }
      :: rt.launches
  end

(* host-level statement: no block loop inside, runs on this domain *)
let exec_host_leaf rt host_bindings (s : Ast.stm) =
  let host = List.rev host_bindings in
  let code = Exec.stage rt.session ~bound:(List.map fst host) [ s ] in
  let o =
    Exec.run_block code ~memory:rt.memory ?on_global:rt.user_hook
      ~collect_dma:rt.collect_dma
      (Array.of_list (List.map (fun (_, v) -> Zint.to_int_exn v) host))
  in
  Exec.add_into o.Exec.b_counters rt.totals;
  acc_add rt.run_dma o.Exec.b_dma

let rec exec_host rt host_bindings (s : Ast.stm) =
  match s with
  | Ast.Loop l when l.Ast.par = Ast.Block -> exec_launch rt host_bindings l
  | Ast.Loop l when List.exists contains_block l.Ast.body ->
    iter_range (lookup host_bindings rt.param_env) l (fun v ->
      List.iter (exec_host rt ((l.Ast.var, v) :: host_bindings)) l.Ast.body)
  | Ast.Guard (conds, body) when List.exists contains_block body ->
    let look = lookup host_bindings rt.param_env in
    if List.for_all (fun c -> not (Zint.is_negative (Ast.eval look c))) conds
    then List.iter (exec_host rt host_bindings) body
  | s -> exec_host_leaf rt host_bindings s

let flush_metrics rt =
  if Emsc_obs.Metrics.enabled () then begin
    let open Emsc_obs in
    Exec.flush_dma_metrics (acc_dma rt.run_dma);
    Metrics.counter "exec.runs" 1.0;
    Metrics.counter "exec.flops" rt.totals.Exec.flops;
    Metrics.counter "exec.global_loads" rt.totals.Exec.g_ld;
    Metrics.counter "exec.global_stores" rt.totals.Exec.g_st;
    Metrics.counter "exec.smem_loads" rt.totals.Exec.s_ld;
    Metrics.counter "exec.smem_stores" rt.totals.Exec.s_st;
    Metrics.counter "exec.syncs" rt.totals.Exec.syncs;
    Metrics.counter "exec.fences" rt.totals.Exec.fences;
    Metrics.counter "runtime.blocks" (float_of_int rt.blocks_run);
    Metrics.counter "runtime.launches"
      (float_of_int (List.length rt.launches));
    Metrics.gauge_max "runtime.arena_peak_concurrent"
      (float_of_int (Arena.peak_in_use rt.apool));
    (* per-block scratchpad peaks, observed at arena release: tighter
       than the sequential executor's cumulative union of windows *)
    let occ = Arena.peak_occupancy rt.apool in
    List.iter
      (fun (name, cells) ->
        Metrics.gauge_max
          ~labels:[ ("buffer", name) ]
          "exec.scratchpad_occupancy_words" (float_of_int cells))
      occ;
    if occ <> [] then
      Metrics.gauge_max "exec.scratchpad_occupancy_total_words"
        (float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 occ));
    Array.iteri
      (fun i cs ->
        if cs.transfers > 0.0 then begin
          let labels = [ ("channel", "ch" ^ string_of_int i) ] in
          Metrics.counter ~labels "runtime.dma.move_in_words" cs.in_words;
          Metrics.counter ~labels "runtime.dma.move_out_words" cs.out_words;
          Metrics.counter ~labels "runtime.dma.transfers" cs.transfers
        end)
      rt.chan_stats
  end

let run ~prog ?local_ref ~param_env ~memory ?on_global
    ?(cfg = default_cfg ~jobs:1) stms =
  let cfg = { cfg with jobs = max 1 cfg.jobs } in
  let session = Exec.session ~prog ?local_ref ~param_env () in
  let apool =
    Arena.create_pool ?capacity_words:cfg.capacity_words
      ?max_arenas:cfg.max_concurrent_blocks ~base:memory ()
  in
  let wpool = Pool.create cfg.jobs in
  let channels =
    if cfg.double_buffer then
      Array.init cfg.jobs (fun i -> Dma.create ~id:i)
    else [||]
  in
  let ev =
    if Ev.enabled () then begin
      (* one exec track per worker, one DMA lane per channel, one
         arena-occupancy track; registered up front so the hot path
         only indexes arrays *)
      Array.iter
        (fun ch ->
          Dma.set_event_ring ch
            (Ev.ring ~kind:Ev.Dma_track
               ("dma" ^ string_of_int (Dma.id ch))))
        channels;
      Arena.set_event_ring apool (Ev.ring ~kind:Ev.Arena_track "arena");
      Some
        (Array.init cfg.jobs (fun i ->
           Ev.ring ~kind:Ev.Exec_track ("worker" ^ string_of_int i)))
    end
    else None
  in
  let rt =
    { cfg; session; param_env; memory; apool; wpool; channels;
      collect_dma = Emsc_obs.Metrics.enabled () || Ev.enabled ();
      user_hook = on_global;
      hook_m = Mutex.create (); totals = Exec.fresh ();
      run_dma = fresh_acc ();
      chan_stats =
        Array.init cfg.jobs (fun _ ->
          { in_words = 0.; out_words = 0.; transfers = 0. });
      ev; launch_seq = 0; launches = []; blocks_run = 0 }
  in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown wpool;
      Array.iter Dma.shutdown channels)
  @@ fun () ->
  Emsc_obs.Prof.probe "runtime.run"
    ~args:[ ("jobs", Emsc_obs.Json.Int cfg.jobs) ]
  @@ fun () ->
  List.iter (exec_host rt []) stms;
  flush_metrics rt;
  { Exec.totals = rt.totals; launches = List.rev rt.launches }
