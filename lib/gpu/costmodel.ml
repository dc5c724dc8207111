module Footprint = Bm_analysis.Footprint
module Rng = Bm_engine.Rng

type t = {
  tb_us : float array;
  tb_mem_requests : float array;
  avg_tb_us : float;
}

(* The launch-sequence-independent half of the model: per-TB dynamic
   instruction and memory-instruction counts (range-analyzed loop trips
   included) plus the block's warp geometry.  Everything here is a pure
   function of (analysis result, launch configuration), so it is what the
   launch-time cache memoizes; the jitter half below is keyed on the kernel
   sequence number and is recomputed per launch. *)
type profile = {
  pr_counts : Footprint.dyn_counts;  (* per-TB dynamic instruction counts *)
  pr_warps : int;
  pr_warp_waves : float;
}

let profile result (launch : Footprint.launch) =
  let threads = Bm_ptx.Types.dim3_count launch.Footprint.block in
  let warps = max 1 ((threads + 31) / 32) in
  (* Four warp schedulers per SM: warps beyond four lanes serialize. *)
  let warp_waves = float_of_int (max 1 ((warps + 3) / 4)) in
  {
    pr_counts = Footprint.dynamic_counts result launch;
    pr_warps = warps;
    pr_warp_waves = warp_waves;
  }

let of_profile (cfg : Config.t) ~kernel_seq p =
  let base_us insts mem =
    let cycles = (insts *. cfg.Config.cpi) +. (mem *. cfg.Config.mem_extra_cycles) in
    Config.cycles_to_us cfg (cycles *. p.pr_warp_waves)
  in
  (* One coalesced request per warp per executed memory instruction. *)
  let requests mem = mem *. float_of_int p.pr_warps in
  (* A uniform profile has one nominal time and one request count. *)
  let n, base_of, tb_mem =
    match p.pr_counts with
    | Footprint.Uniform u ->
      let b = base_us u.insts u.mem in
      (u.tbs, (fun _ -> b), Array.make u.tbs (requests u.mem))
    | Footprint.Varying v ->
      (Array.length v.insts, (fun tb -> base_us v.insts.(tb) v.mem.(tb)), Array.map requests v.mem)
  in
  let tb_us = Array.make n 0.0 in
  let sum = ref 0.0 in
  for tb = 0 to n - 1 do
    let base_us = base_of tb in
    let j = Rng.jitter (cfg.Config.seed + kernel_seq) tb in
    (* Heavy-tailed straggler factor: most TBs are near nominal, a few run
       much longer (data-dependent work).  The tail weight scales with the
       configured jitter so the default stays mild. *)
    let tail = 1.0 +. (6.0 *. cfg.Config.jitter_frac *. (j ** 12.0)) in
    let jittered =
      base_us *. (1.0 +. (cfg.Config.jitter_frac *. ((2.0 *. j) -. 1.0))) *. tail
    in
    tb_us.(tb) <- jittered;
    sum := !sum +. jittered
  done;
  { tb_us; tb_mem_requests = tb_mem; avg_tb_us = (if n = 0 then 0.0 else !sum /. float_of_int n) }

let of_launch cfg ~kernel_seq result launch = of_profile cfg ~kernel_seq (profile result launch)

let total_mem_requests t = Array.fold_left ( +. ) 0.0 t.tb_mem_requests
