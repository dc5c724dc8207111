(** Value-range analysis: per-thread-block read/write footprints.

    Given the symbolic access expressions of {!Symeval} and the concrete
    kernel-launch parameters (grid/block dimensions and argument values —
    all known only at launch time, which is exactly why the paper performs
    this during JIT compilation), compute for every thread block the strided
    intervals of byte addresses it may read and write.  Intersecting a
    child kernel's read set with its parent's write set (Algorithm 1
    line 23) yields the TB-level RAW dependency graph. *)

type launch = {
  grid : Bm_ptx.Types.dim3;
  block : Bm_ptx.Types.dim3;
  args : (string * int) list;
      (** parameter name -> concrete value; pointer parameters map to the
          base address assigned by the allocator *)
}

type t = {
  freads : Sinterval.t list;
  fwrites : Sinterval.t list;
}
(** The footprint of one thread block: one interval per (executed) static
    global access. *)

type kernel_footprints =
  | Per_tb of t array  (** indexed by linear thread-block id *)
  | Conservative of string
      (** the kernel has a data-dependent access; BlockMaestro falls back to
          whole-kernel (fully-connected) dependency *)

val of_result : Symeval.result -> launch -> kernel_footprints
(** Every subexpression that reads nothing of the thread block (no
    [%ctaid], no guard-capped [%tid.x], no counter whose range reads
    either — {!Symeval.result.counter_reads}) is evaluated once for the
    launch; only the rest is evaluated per TB.  The result equals
    evaluating every access of every TB in full. *)

val analyze : Bm_ptx.Types.kernel -> launch -> kernel_footprints
(** [Symeval.analyze] followed by {!of_result}. *)

val tb_count : launch -> int

val launch_hash : launch -> int
(** A hash over every field of the launch.  [Hashtbl.hash] stops after
    ten meaningful values, fewer than a launch's geometry and arguments,
    so relaunches differing only in a late scalar argument would share a
    bucket; memo tables keyed on launches lead their keys with this. *)

val overlaps : writes:t -> reads:t -> bool
(** RAW test: does any write interval of the parent TB intersect any read
    interval of the child TB? *)

val whole : t array -> t
(** Join footprints across all TBs, per access (used for command-level
    dependency tests during queue reordering). *)

val footprints_intersect : t -> t -> bool
(** Any RAW/WAR/WAW hazard between two whole-kernel footprints (used for
    command reordering legality, which must preserve all hazards). *)

val raw_intersect : writes:t -> reads:t -> bool
(** Alias of {!overlaps} at whole-kernel granularity. *)

(** Dynamic instructions and global-memory instructions of one thread,
    per TB. *)
type dyn_counts =
  | Uniform of { tbs : int; insts : float; mem : float }
      (** the same for each of the [tbs] TBs: no trip count reads [%ctaid] *)
  | Varying of { insts : float array; mem : float array }  (** indexed by TB *)

val dynamic_counts : Symeval.result -> launch -> dyn_counts
(** Estimated dynamic instruction counts of one thread of every TB of the
    launch, with loop trip counts resolved through the range analysis and
    each access weighted by its enclosing loops' trips; the GPU cost model
    turns these into TB execution time and memory traffic.  A trip count
    that is not static counts as 8; one under a zero-trip enclosing loop
    as 0.  Trip counts that read no [%ctaid] are evaluated once for the
    whole launch; when none reads it the result is [Uniform]. *)
