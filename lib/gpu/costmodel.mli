(** Thread-block execution-time and memory-traffic cost model.

    The simulator is TB-granular: it needs, for every thread block of a
    launch, how long the block occupies an SM slot and how many memory
    requests it issues.  Both are derived from the kernel's dynamic
    instruction mix (straight-line instructions plus range-analyzed loop
    trip counts) — the same quantities a cycle-level simulator would
    accumulate, collapsed into a per-TB latency.  A small deterministic
    jitter (hashed from kernel sequence number and TB id) models the
    execution-time variance the paper's stall distributions rely on. *)

type t = {
  tb_us : float array;            (** per-TB execution time, microseconds *)
  tb_mem_requests : float array;  (** per-TB coalesced global-memory requests *)
  avg_tb_us : float;
}

type profile
(** The launch-sequence-independent half of the model: per-TB dynamic
    instruction/memory counts and warp geometry.  A pure function of
    (analysis result, launch configuration) — this is what the launch-time
    analysis cache memoizes. *)

val profile : Bm_analysis.Symeval.result -> Bm_analysis.Footprint.launch -> profile

val of_profile : Config.t -> kernel_seq:int -> profile -> t
(** Apply the per-launch deterministic jitter (hashed from [kernel_seq] and
    the TB id) to a profile.  [of_launch cfg ~kernel_seq r l] is exactly
    [of_profile cfg ~kernel_seq (profile r l)] — splitting the two halves
    never changes a single bit of the result. *)

val of_launch :
  Config.t ->
  kernel_seq:int ->
  Bm_analysis.Symeval.result ->
  Bm_analysis.Footprint.launch ->
  t

val total_mem_requests : t -> float
