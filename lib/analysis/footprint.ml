open Bm_ptx.Types

type launch = {
  grid : dim3;
  block : dim3;
  args : (string * int) list;
}

type t = {
  freads : Sinterval.t list;
  fwrites : Sinterval.t list;
}

type kernel_footprints =
  | Per_tb of t array
  | Conservative of string

exception Not_static of string

let tb_count launch = dim3_count launch.grid

let launch_hash (l : launch) = Hashtbl.hash_param 256 256 l

let cta_of_tb launch tb =
  let gx = launch.grid.dx and gy = launch.grid.dy in
  { dx = tb mod gx; dy = tb / gx mod gy; dz = tb / (gx * gy) }

let axis_of d = function X -> d.dx | Y -> d.dy | Z -> d.dz

(* Environment for evaluating one TB's accesses.  [tid_cap] clamps the
   x-thread range when a recognized bounds check proves threads beyond it
   return immediately (tail thread blocks).  [ctrs] holds, by counter id,
   every counter with its init and bound split for the launch (see
   [residual] below). *)
type env = {
  launch : launch;
  cta : dim3;
  result : Symeval.result;
  tid_cap : int option;
  ctrs : (Symeval.counter * residual * residual) option array;
}

(* An expression split for one launch: every maximal subtree that reads
   nothing of the thread block is evaluated once and kept as [Fixed] with
   its outcome — an interval, or the exception its evaluation raised, to
   re-raise at the same point of every TB's evaluation, so a zero-trip
   [Exit] or a [Not_static] wins or loses against its neighbours exactly
   as it would if every TB evaluated the whole expression.  What is left
   reads the TB: [%ctaid], a per-TB capped [%tid.x], or a counter whose
   range reads either. *)
and residual =
  | Fixed of (Sinterval.t, exn) result
  | Cta of axis
  | Tid_x
  | Ctr of int
  | Op of op * residual * residual

and op = Add | Sub | Mul | Div | Rem | Shr | Min | Max

let special_interval env = function
  | Tid X ->
    let hi = axis_of env.launch.block X - 1 in
    let hi = match env.tid_cap with Some c -> min hi c | None -> hi in
    Sinterval.make ~lo:0 ~hi:(max 0 hi) ~stride:1
  | Tid a -> Sinterval.make ~lo:0 ~hi:(max 0 (axis_of env.launch.block a - 1)) ~stride:1
  | Ntid a -> Sinterval.singleton (axis_of env.launch.block a)
  | Ctaid a -> Sinterval.singleton (axis_of env.cta a)
  | Nctaid a -> Sinterval.singleton (axis_of env.launch.grid a)

(* The value set of a recognized loop counter, from its evaluated init
   and bound.  [None] when the loop provably runs zero iterations. *)
let counter_range (c : Symeval.counter) (ii : Sinterval.t) (bi : Sinterval.t) =
  let stride =
    let s = abs c.step in
    if ii.Sinterval.stride = 0 then s
    else
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      max 1 (gcd s ii.Sinterval.stride)
  in
  if c.step > 0 then begin
    (* Upward loop; exits when [counter cmp bound] holds. *)
    let hi =
      match c.cmp with
      | Ge -> bi.Sinterval.hi - 1
      | Gt -> bi.Sinterval.hi
      | Eq | Ne -> bi.Sinterval.hi
      | Lt | Le -> raise (Not_static "unsupported upward loop exit condition")
    in
    if hi < ii.Sinterval.lo then None
    else Some (Sinterval.make ~lo:ii.Sinterval.lo ~hi ~stride)
  end
  else if c.step < 0 then begin
    let lo =
      match c.cmp with
      | Le -> bi.Sinterval.lo + 1
      | Lt -> bi.Sinterval.lo
      | Eq | Ne -> bi.Sinterval.lo
      | Ge | Gt -> raise (Not_static "unsupported downward loop exit condition")
    in
    if lo > ii.Sinterval.hi then None
    else Some (Sinterval.make ~lo ~hi:ii.Sinterval.hi ~stride)
  end
  else raise (Not_static "zero-step loop")

let some_range = function
  | Some i -> i
  | None -> raise Exit  (* zero-trip loop: the access does not execute *)

(* Evaluate a residual: once per launch on the parts [split] folds, then
   once per TB on what remains.  Operands evaluate in the same order
   either way, so the first exception raised is the same. *)
let rec reval env = function
  | Fixed (Ok i) -> i
  | Fixed (Error e) -> raise e
  | Cta a -> Sinterval.singleton (axis_of env.cta a)
  | Tid_x -> special_interval env (Tid X)
  | Ctr cid -> some_range (ctr_range env cid)
  | Op (Add, a, b) -> Sinterval.add (reval env a) (reval env b)
  | Op (Sub, a, b) -> Sinterval.sub (reval env a) (reval env b)
  | Op (Mul, a, b) -> Sinterval.mul (reval env a) (reval env b)
  | Op (Div, a, b) ->
    let bi = reval env b in
    if bi.Sinterval.stride = 0 && bi.Sinterval.lo <> 0 then
      Sinterval.div_const (reval env a) bi.Sinterval.lo
    else raise (Not_static "division by a non-constant")
  | Op (Rem, a, b) ->
    let bi = reval env b in
    if bi.Sinterval.stride = 0 && bi.Sinterval.lo <> 0 then
      Sinterval.rem_const (reval env a) bi.Sinterval.lo
    else raise (Not_static "remainder by a non-constant")
  | Op (Shr, a, b) ->
    let bi = reval env b in
    if bi.Sinterval.stride = 0 && bi.Sinterval.lo >= 0 then
      Sinterval.shr (reval env a) bi.Sinterval.lo
    else raise (Not_static "shift by a non-constant")
  | Op (Min, a, b) -> Sinterval.min_ (reval env a) (reval env b)
  | Op (Max, a, b) -> Sinterval.max_ (reval env a) (reval env b)

and ctr_range env cid =
  match env.ctrs.(cid) with
  | Some (c, init, bound) ->
    let ii = reval env init in
    let bi = reval env bound in
    counter_range c ii bi
  | None -> assert false (* [launch_env] fills every counter, in id order *)

(* The launch's view of which counters vary per TB.  [capped]: a
   recognized global-index guard caps [%tid.x] per TB, so a counter that
   reads [%tid.x] varies too; otherwise only [%ctaid] readers do. *)
let varies ~capped (r : Symeval.result) cid =
  match r.Symeval.counter_reads.(cid) with
  | Symeval.Reads_ctaid -> true
  | Symeval.Reads_tid_x -> capped
  | Symeval.Reads_none -> false

let outcome f = match f () with i -> Ok i | exception x -> Error x

(* Split [e] for the launch of [env], bottom-up: a node none of whose
   parts reads the TB is folded by evaluating it once with [env], whose
   [cta] and [tid_cap] no folded node reads.  Counters read through
   [env.ctrs], so every counter [e] mentions must be split already. *)
let split env ~capped e =
  let fold res = Fixed (outcome (fun () -> reval env res)) in
  let rec go (e : Sym.t) =
    match e with
    | Sym.Const n -> Fixed (Ok (Sinterval.singleton n))
    | Sym.Param p -> (
      match List.assoc_opt p env.launch.args with
      | Some v -> Fixed (Ok (Sinterval.singleton v))
      | None -> Fixed (Error (Not_static ("unbound parameter " ^ p))))
    | Sym.Special (Ctaid a) -> Cta a
    | Sym.Special (Tid X) when capped -> Tid_x
    | Sym.Special s -> Fixed (outcome (fun () -> special_interval env s))
    | Sym.Counter cid -> if varies ~capped env.result cid then Ctr cid else fold (Ctr cid)
    | Sym.Unknown reason -> Fixed (Error (Not_static reason))
    | Sym.Add (a, b) -> node Add a b
    | Sym.Sub (a, b) -> node Sub a b
    | Sym.Mul (a, b) -> node Mul a b
    | Sym.Div (a, b) -> node Div a b
    | Sym.Rem (a, b) -> node Rem a b
    | Sym.Shr (a, b) -> node Shr a b
    | Sym.Min (a, b) -> node Min a b
    | Sym.Max (a, b) -> node Max a b
  and node op a b =
    match (go a, go b) with
    | (Fixed _ as x), (Fixed _ as y) -> fold (Op (op, x, y))
    | x, y -> Op (op, x, y)
  in
  go e

(* The evaluation environment of one launch under one view: every
   counter's init and bound split once, for every TB to share.  A
   counter's init and bound mention only enclosing loops' counters, which
   come earlier in id order. *)
let launch_env (r : Symeval.result) launch ~capped =
  let ctrs = Array.make (Array.length r.Symeval.counter_reads) None in
  let env = { launch; cta = { dx = 0; dy = 0; dz = 0 }; result = r; tid_cap = None; ctrs } in
  List.iter
    (fun (c : Symeval.counter) ->
      ctrs.(c.cid) <- Some (c, split env ~capped c.init, split env ~capped c.bound))
    r.Symeval.counters;
  env

(* The canonical bounds-checked quantity: ctaid.x * ntid.x + tid.x. *)
let is_global_index_x (e : Sym.t) =
  let is_mul a b =
    match (a, b) with
    | Sym.Special (Ctaid X), Sym.Special (Ntid X) | Sym.Special (Ntid X), Sym.Special (Ctaid X) ->
      true
    | _ -> false
  in
  match e with
  | Sym.Add (Sym.Mul (a, b), Sym.Special (Tid X)) | Sym.Add (Sym.Special (Tid X), Sym.Mul (a, b))
    ->
    is_mul a b
  | _ -> false

(* Thread cap for one TB implied by the kernel's recognized bounds checks
   (their bounds split by [genv], which never caps [%tid.x]): threads with
   ctaid.x*ntid.x + tid.x >= n return before touching memory, so tail TBs
   have a reduced effective thread range (and fully-guarded TBs touch
   nothing). *)
let tid_cap_of genv bounds launch (cta : dim3) =
  let env = { genv with cta } in
  List.fold_left
    (fun acc bound ->
      match reval env bound with
      | b when b.Sinterval.stride = 0 ->
        let cap = b.Sinterval.lo - 1 - (cta.dx * launch.block.dx) in
        Some (match acc with Some c -> min c cap | None -> cap)
      | _ -> acc
      | exception Not_static _ -> acc
      | exception Exit -> acc)
    None bounds

(* An access touches [abytes] bytes from each address: [width] is
   [0 .. abytes-1], or [None] for single bytes. *)
let widen width i = match width with None -> i | Some w -> Sinterval.add i w

(* An access prepared for a launch: either its interval (or skip, or
   exception) for every TB at once, or its residual and width. *)
type planned =
  | Every of (Sinterval.t option, exn) result
  | Per_tb_access of residual * Sinterval.t option

let plan_access env ~capped (a : Symeval.access) =
  let width =
    if a.abytes <= 1 then None else Some (Sinterval.make ~lo:0 ~hi:(a.abytes - 1) ~stride:1)
  in
  match split env ~capped a.aexpr with
  | Fixed (Ok i) -> Every (Ok (Some (widen width i)))
  | Fixed (Error Exit) -> Every (Ok None)
  | Fixed (Error e) -> Every (Error e)
  | res -> Per_tb_access (res, width)

let of_result (r : Symeval.result) launch =
  match r.nonstatic_reason with
  | Some reason -> Conservative reason
  | None -> (
    let n = tb_count launch in
    let guard_bounds =
      List.filter_map
        (fun (g : Symeval.guard_constraint) ->
          if is_global_index_x g.g_expr then Some g.g_bound else None)
        r.guards
    in
    let capped = guard_bounds <> [] in
    let env = launch_env r launch ~capped in
    (* Guard bounds are evaluated uncapped, whatever the accesses see. *)
    let genv = if capped then launch_env r launch ~capped:false else env in
    let bounds = List.map (split genv ~capped:false) guard_bounds in
    let accesses =
      List.map (fun (a : Symeval.access) -> (a.akind, plan_access env ~capped a)) r.accesses
    in
    let empty = { freads = []; fwrites = [] } in
    try
      let per_tb =
        Array.init n (fun tb ->
            let cta = cta_of_tb launch tb in
            let tid_cap = if capped then tid_cap_of genv bounds launch cta else None in
            match tid_cap with
            | Some c when c < 0 ->
              (* Every thread of this TB fails the bounds check. *)
              empty
            | Some _ | None ->
              let env = { env with cta; tid_cap } in
              let freads = ref [] and fwrites = ref [] in
              List.iter
                (fun (kind, p) ->
                  let interval =
                    match p with
                    | Every (Ok i) -> i
                    | Every (Error e) -> raise e
                    | Per_tb_access (res, width) -> (
                      match reval env res with
                      | i -> Some (widen width i)
                      | exception Exit -> None)
                  in
                  match interval with
                  | None -> ()
                  | Some i -> (
                    match kind with
                    | `Read -> freads := i :: !freads
                    | `Write -> fwrites := i :: !fwrites))
                accesses;
              { freads = List.rev !freads; fwrites = List.rev !fwrites })
      in
      Per_tb per_tb
    with Not_static reason -> Conservative reason)

let analyze kernel launch = of_result (Symeval.analyze kernel) launch

let overlaps ~writes ~reads =
  List.exists (fun w -> List.exists (fun r -> Sinterval.intersects w r) reads.freads) writes.fwrites

let whole per_tb =
  match Array.length per_tb with
  | 0 -> { freads = []; fwrites = [] }
  | _ ->
    let join_lists a b =
      (* Per-access positional join; footprints of all TBs of one kernel
         list accesses in the same order. *)
      if List.length a = List.length b then List.map2 Sinterval.join a b
      else a @ b
    in
    Array.fold_left
      (fun acc fp ->
        { freads = join_lists acc.freads fp.freads; fwrites = join_lists acc.fwrites fp.fwrites })
      per_tb.(0)
      (Array.sub per_tb 1 (Array.length per_tb - 1))

let any_intersect xs ys =
  List.exists (fun x -> List.exists (fun y -> Sinterval.intersects x y) ys) xs

let raw_intersect ~writes ~reads = any_intersect writes.fwrites reads.freads

let footprints_intersect a b =
  any_intersect a.fwrites b.freads   (* RAW *)
  || any_intersect a.freads b.fwrites (* WAR *)
  || any_intersect a.fwrites b.fwrites (* WAW *)

(* One launch's per-thread dynamic instruction and global-memory
   instruction counts, given the trip count of every counter: each
   instruction weighs the product of its enclosing loops' trips. *)
let counts (r : Symeval.result) trip =
  let body = r.kernel.kbody in
  let counters = Array.of_list r.counters in
  let trips = Array.map (fun (c : Symeval.counter) -> trip c.cid) counters in
  let total = ref 0.0 in
  for i = 0 to Array.length body - 1 do
    match body.(i) with
    | Label _ -> ()
    | I _ ->
      let m = ref 1.0 in
      for k = 0 to Array.length counters - 1 do
        let c = counters.(k) in
        if c.entry <= i && i <= c.last then m := !m *. trips.(k)
      done;
      total := !total +. !m
  done;
  let mem =
    List.fold_left
      (fun acc (a : Symeval.access) ->
        acc +. List.fold_left (fun m cid -> m *. trip cid) 1.0 a.aloops)
      0.0 r.accesses
  in
  (!total, mem)

(* A counter's trip count.  A range that is not static assumes a modest
   loop; a zero-trip enclosing loop ([Exit] from a counter the range
   reads) means this loop never starts, so 0 is exact. *)
let trip_of range =
  match range () with
  | Some i -> float_of_int (Sinterval.count i)
  | None -> 0.0
  | exception Not_static _ -> 8.0
  | exception Exit -> 0.0

type dyn_counts =
  | Uniform of { tbs : int; insts : float; mem : float }
  | Varying of { insts : float array; mem : float array }

let dynamic_counts (r : Symeval.result) launch =
  let n = tb_count launch in
  if n = 0 then Varying { insts = [||]; mem = [||] }
  else begin
    (* Threads are never capped here, so only [%ctaid] readers vary; the
       other trip counts are evaluated once for the launch. *)
    let env = launch_env r launch ~capped:false in
    let fixed =
      Array.of_list
        (List.map
           (fun (c : Symeval.counter) ->
             if varies ~capped:false r c.cid then None
             else Some (trip_of (fun () -> ctr_range env c.cid)))
           r.counters)
    in
    if Array.for_all Option.is_some fixed then begin
      let insts, mem = counts r (fun cid -> Option.get fixed.(cid)) in
      Uniform { tbs = n; insts; mem }
    end
    else begin
      let all_insts = Array.make n 0.0 and all_mem = Array.make n 0.0 in
      for tb = 0 to n - 1 do
        let env = { env with cta = cta_of_tb launch tb } in
        let trips =
          Array.mapi
            (fun cid t ->
              match t with Some t -> t | None -> trip_of (fun () -> ctr_range env cid))
            fixed
        in
        let insts, mem = counts r (fun cid -> trips.(cid)) in
        all_insts.(tb) <- insts;
        all_mem.(tb) <- mem
      done;
      Varying { insts = all_insts; mem = all_mem }
    end
  end
