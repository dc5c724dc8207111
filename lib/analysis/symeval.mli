(** Forward symbolic evaluation of a kernel body.

    Complements {!Slice} (which only classifies accesses) by reconstructing,
    for every global load/store, the symbolic *address expression* in terms
    of launch-time-known leaves.  Counted loops are recognized from the CFG
    (back edge + [setp]/guarded-[bra] header + constant-step increment) and
    their induction variables become {!Sym.Counter} leaves whose ranges are
    resolved later by the value-range analysis ({!Footprint}). *)

type counter = {
  cid : int;
  init : Sym.t;           (** counter value on loop entry *)
  bound : Sym.t;          (** the loop-exit comparison bound *)
  cmp : Bm_ptx.Types.cmp; (** exit taken when [counter cmp bound] holds *)
  step : int;             (** per-iteration increment *)
  entry : int;            (** first instruction index of the loop extent *)
  last : int;             (** last instruction index of the loop extent *)
}

type access = {
  ainstr : int;                 (** instruction index in the kernel body *)
  akind : [ `Read | `Write ];
  aexpr : Sym.t;                (** symbolic byte address *)
  abytes : int;                 (** access width *)
  aloops : int list;            (** ids of enclosing recognized loops *)
}

type guard_constraint = {
  g_expr : Sym.t;   (** the guarded quantity *)
  g_bound : Sym.t;  (** the kernel body executes only while [g_expr < g_bound] *)
}

(** What a counter's value range reads of the thread block it runs in.
    Ordered: a counter that reads [%ctaid] varies from TB to TB wherever
    it is evaluated; one that reads only [%tid.x] varies only where a
    recognized global-index guard caps the thread range per TB (the
    footprint analysis, not the cost model); the rest are fixed by the
    launch configuration, so one evaluation per launch serves every TB. *)
type tb_reads =
  | Reads_none
  | Reads_tid_x  (** [%tid.x], or a counter that reads it *)
  | Reads_ctaid  (** [%ctaid], or a counter that reads it *)

type result = {
  kernel : Bm_ptx.Types.kernel;
  accesses : access list;       (** in instruction order; atomics appear as both a read and a write *)
  counters : counter list;
  guards : guard_constraint list;
      (** bounds checks recognized from [setp.ge] + guarded branch to the
          epilogue; the value-range analysis uses them to clamp the thread
          range of tail thread blocks *)
  static : bool;                (** every access expression is static *)
  nonstatic_reason : string option;
  counter_reads : tb_reads array;
      (** indexed by counter id: what the counter's [init] and [bound]
          read, directly or through the counters they mention *)
}

val analyze : Bm_ptx.Types.kernel -> result

val counter_of : result -> int -> counter
(** Look up a counter by id.  @raise Not_found if absent. *)
