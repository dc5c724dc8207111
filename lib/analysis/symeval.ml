open Bm_ptx.Types
module Cfg = Bm_ptx.Cfg

type counter = {
  cid : int;
  init : Sym.t;
  bound : Sym.t;
  cmp : Bm_ptx.Types.cmp;
  step : int;
  entry : int;
  last : int;
}

type access = {
  ainstr : int;
  akind : [ `Read | `Write ];
  aexpr : Sym.t;
  abytes : int;
  aloops : int list;
}

type guard_constraint = {
  g_expr : Sym.t;   (* the guarded quantity *)
  g_bound : Sym.t;  (* executes only while g_expr < g_bound *)
}

type tb_reads = Reads_none | Reads_tid_x | Reads_ctaid

type result = {
  kernel : Bm_ptx.Types.kernel;
  accesses : access list;
  counters : counter list;
  guards : guard_constraint list;
  static : bool;
  nonstatic_reason : string option;
  counter_reads : tb_reads array;  (* by counter id *)
}

let join_reads a b =
  match (a, b) with
  | Reads_ctaid, _ | _, Reads_ctaid -> Reads_ctaid
  | Reads_tid_x, _ | _, Reads_tid_x -> Reads_tid_x
  | Reads_none, Reads_none -> Reads_none

(* A counter id outside [counter_reads] (none is, for a result [analyze]
   built) reads as [Reads_ctaid]: the conservative answer. *)
let rec reads_of counter_reads (e : Sym.t) =
  match e with
  | Sym.Special (Ctaid _) -> Reads_ctaid
  | Sym.Special (Tid X) -> Reads_tid_x
  | Sym.Const _ | Sym.Param _ | Sym.Special _ | Sym.Unknown _ -> Reads_none
  | Sym.Counter cid ->
    if cid >= 0 && cid < Array.length counter_reads then counter_reads.(cid) else Reads_ctaid
  | Sym.Add (a, b) | Sym.Sub (a, b) | Sym.Mul (a, b) | Sym.Div (a, b) | Sym.Rem (a, b)
  | Sym.Shr (a, b) | Sym.Min (a, b) | Sym.Max (a, b) -> (
    match reads_of counter_reads a with
    | Reads_ctaid -> Reads_ctaid
    | ra -> join_reads ra (reads_of counter_reads b))

(* Counters come in id order, and a counter's init and bound can only
   mention enclosing loops' counters, which have smaller ids: one pass in
   id order sees every mentioned counter already classified. *)
let classify_counters counters =
  let reads = Array.make (List.length counters) Reads_ctaid in
  List.iter
    (fun c ->
      if c.cid < Array.length reads then
        reads.(c.cid) <- join_reads (reads_of reads c.init) (reads_of reads c.bound))
    counters;
  reads

(* A recognized (or not) loop, located by instruction extent. *)
type loop_desc = {
  l_entry : int;
  l_last : int;
  l_counter : string option;
  l_bound_operand : operand;
  l_cmp : cmp;
  l_step : int;
  l_defined : string list;  (* registers defined anywhere in the extent *)
}

let flip_cmp = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let extent_of_blocks (cfg : Cfg.t) blocks =
  List.fold_left
    (fun (lo, hi) b -> (min lo cfg.blocks.(b).first, max hi cfg.blocks.(b).last))
    (max_int, min_int) blocks

let defined_in_extent body entry last =
  let acc = ref [] in
  for i = entry to last do
    match defined_reg body.(i) with
    | Some r -> if not (List.mem r !acc) then acc := r :: !acc
    | None -> ()
  done;
  !acc

(* Recognize the induction variable of a natural loop: an exit test
   [setp cmp %p, a, b] in the header guarding a branch out of the loop,
   where one comparison operand is a register incremented by a constant
   inside the loop body. *)
let recognize_loop (cfg : Cfg.t) ~src ~header =
  let body = cfg.kernel.kbody in
  let blocks = Cfg.natural_loop cfg ~src ~header in
  let entry, last = extent_of_blocks cfg blocks in
  let hdr = cfg.blocks.(header) in
  let defined = defined_in_extent body entry last in
  (* Increment candidates within the extent: add c, c, imm. *)
  let increments = Hashtbl.create 4 in
  for i = entry to last do
    match body.(i) with
    | I { op = Add; dst = Some (Reg d); srcs = [ Reg s; Imm step ]; _ } when d = s ->
      Hashtbl.replace increments d step
    | Label _ | I _ -> ()
  done;
  (* Exit test in the header. *)
  let found = ref None in
  for i = hdr.first to hdr.last do
    match body.(i) with
    | I { op = Setp c; dst = Some (Reg p); srcs = [ a; b ]; _ } ->
      (* Look ahead for a guarded branch on p leaving the loop. *)
      for j = i + 1 to hdr.last do
        match body.(j) with
        | I { op = Bra target; guard = Some (false, p'); _ } when p' = p && !found = None ->
          let target_block =
            let pos = ref (-1) in
            Array.iteri (fun idx ins -> if ins = Label target then pos := idx) body;
            if !pos >= 0 then cfg.block_of_instr.(!pos) else -1
          in
          if not (List.mem target_block blocks) then begin
            match (a, b) with
            | Reg r, bound when Hashtbl.mem increments r ->
              found := Some (r, bound, c, Hashtbl.find increments r)
            | bound, Reg r when Hashtbl.mem increments r ->
              found := Some (r, bound, flip_cmp c, Hashtbl.find increments r)
            | _, _ -> ()
          end
        | Label _ | I _ -> ()
      done
    | Label _ | I _ -> ()
  done;
  match !found with
  | Some (counter, bound, cmp, step) ->
    {
      l_entry = entry;
      l_last = last;
      l_counter = Some counter;
      l_bound_operand = bound;
      l_cmp = cmp;
      l_step = step;
      l_defined = defined;
    }
  | None ->
    {
      l_entry = entry;
      l_last = last;
      l_counter = None;
      l_bound_operand = Imm 0;
      l_cmp = Lt;
      l_step = 1;
      l_defined = defined;
    }

let analyze kernel =
  let body = kernel.kbody in
  let n = Array.length body in
  let cfg = Cfg.build kernel in
  let loops =
    Cfg.back_edges cfg
    |> List.map (fun (src, header) -> recognize_loop cfg ~src ~header)
    (* Outer loops first at a shared entry point (larger extent first). *)
    |> List.sort (fun a b ->
           if a.l_entry <> b.l_entry then compare a.l_entry b.l_entry
           else compare b.l_last a.l_last)
  in
  let env : (string, Sym.t) Hashtbl.t = Hashtbl.create 64 in
  let eval_operand = function
    | Reg r -> (
      match Hashtbl.find_opt env r with Some e -> e | None -> Sym.Unknown ("undefined " ^ r))
    | Imm v -> Sym.Const v
    | Fimm _ -> Sym.Unknown "float immediate"
    | Sreg s -> Sym.Special s
    | Sym s -> Sym.Param s
  in
  let bind r e = Hashtbl.replace env r e in
  let accesses = ref [] in
  let counters = ref [] in
  let guards = ref [] in
  (* Labels that lead directly to [ret]: branching there on a predicate is
     the canonical bounds-check epilogue. *)
  let ret_labels = Hashtbl.create 4 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Label l when i + 1 < n -> (
        match body.(i + 1) with
        | I { op = Ret; guard = None; _ } -> Hashtbl.replace ret_labels l ()
        | Label _ | I _ -> ())
      | Label _ | I _ -> ())
    body;
  (* Predicates defined by a [setp.ge e, b] whose symbolic operands we keep,
     so a following guarded branch-to-epilogue yields the constraint e < b
     for all code after it. *)
  let pred_defs : (string, guard_constraint) Hashtbl.t = Hashtbl.create 4 in
  let next_cid = ref 0 in
  (* Stack of (loop_desc, cid option) currently active. *)
  let active : (loop_desc * int option) list ref = ref [] in
  let record i kind base offset bytes =
    let aexpr = Sym.add (eval_operand base) (Sym.Const offset) in
    let aloops = List.filter_map (fun (_, c) -> c) !active in
    accesses := { ainstr = i; akind = kind; aexpr; abytes = bytes; aloops } :: !accesses
  in
  for i = 0 to n - 1 do
    (* Enter loops whose extent starts here. *)
    List.iter
      (fun l ->
        if l.l_entry = i then begin
          let cid_opt =
            match l.l_counter with
            | None ->
              List.iter (fun r -> bind r (Sym.Unknown "unrecognized loop")) l.l_defined;
              None
            | Some c ->
              let init = eval_operand (Reg c) in
              List.iter (fun r -> bind r (Sym.Unknown "loop-carried")) l.l_defined;
              let bound = eval_operand l.l_bound_operand in
              let cid = !next_cid in
              incr next_cid;
              counters :=
                { cid; init; bound; cmp = l.l_cmp; step = l.l_step; entry = l.l_entry; last = l.l_last }
                :: !counters;
              bind c (Sym.Counter cid);
              Some cid
          in
          active := (l, cid_opt) :: !active
        end)
      loops;
    let is_active_counter r =
      List.exists
        (fun (l, _) -> match l.l_counter with Some c -> c = r | None -> false)
        !active
    in
    (match body.(i) with
    | Label _ -> ()
    | I { op; ty; dst; srcs; offset; guard = _ } -> (
      let dst_reg = match dst with Some (Reg r) -> Some r | Some _ | None -> None in
      let skip_counter = match dst_reg with Some r -> is_active_counter r | None -> false in
      let set e = match dst_reg with Some r when not skip_counter -> bind r e | Some _ | None -> () in
      match (op, srcs) with
      | Mov, [ a ] -> set (eval_operand a)
      | Add, [ a; b ] -> set (Sym.add (eval_operand a) (eval_operand b))
      | Sub, [ a; b ] -> set (Sym.sub (eval_operand a) (eval_operand b))
      | (Mul_lo | Mul_wide), [ a; b ] -> set (Sym.mul (eval_operand a) (eval_operand b))
      | (Mad_lo | Mad_wide), [ a; b; c ] ->
        set (Sym.add (Sym.mul (eval_operand a) (eval_operand b)) (eval_operand c))
      | Div, [ a; b ] -> set (Sym.div (eval_operand a) (eval_operand b))
      | Rem, [ a; b ] -> set (Sym.rem (eval_operand a) (eval_operand b))
      | Shl, [ a; b ] -> set (Sym.shl (eval_operand a) (eval_operand b))
      | Shr, [ a; b ] -> set (Sym.shr (eval_operand a) (eval_operand b))
      | Min, [ a; b ] -> set (Sym.min_ (eval_operand a) (eval_operand b))
      | Max, [ a; b ] -> set (Sym.max_ (eval_operand a) (eval_operand b))
      | Neg, [ a ] -> set (Sym.sub (Sym.Const 0) (eval_operand a))
      | (And_ | Or_ | Xor | Not_), _ -> set (Sym.Unknown "bitwise")
      | Cvt _, [ a ] -> set (eval_operand a)
      | Cvta _, [ a ] -> set (eval_operand a)
      | Setp Ge, [ a; b ] ->
        (match dst_reg with
        | Some p ->
          Hashtbl.replace pred_defs p { g_expr = eval_operand a; g_bound = eval_operand b }
        | None -> ());
        set (Sym.Unknown "predicate")
      | Setp _, _ -> set (Sym.Unknown "predicate")
      | Selp, [ a; b; _p ] ->
        let ea = eval_operand a and eb = eval_operand b in
        set (if ea = eb then ea else Sym.Unknown "selp")
      | Ld Param_space, [ Sym name ] -> set (Sym.Param name)
      | Ld Global, [ base ] ->
        record i `Read base offset (ty_bytes ty);
        set (Sym.Unknown "global load")
      | Ld (Shared | Local), _ -> set (Sym.Unknown "on-chip load")
      | St Global, [ base; _value ] -> record i `Write base offset (ty_bytes ty)
      | St (Shared | Local | Param_space), _ -> ()
      | Atom (Global, _), base :: _ ->
        record i `Read base offset (ty_bytes ty);
        record i `Write base offset (ty_bytes ty);
        set (Sym.Unknown "atomic")
      | Atom _, _ -> set (Sym.Unknown "atomic")
      | Bra target, _ ->
        (match body.(i) with
        | I { guard = Some (false, p); _ } when Hashtbl.mem ret_labels target -> (
          match Hashtbl.find_opt pred_defs p with
          | Some g when Sym.is_static g.g_expr && Sym.is_static g.g_bound ->
            guards := g :: !guards
          | Some _ | None -> ())
        | Label _ | I _ -> ())
      | (Bar | Ret), _ -> ()
      | (Fma | Funary _), _ -> set (Sym.Unknown "float compute")
      | _, _ -> set (Sym.Unknown "unmodeled instruction")));
    (* Leave loops whose extent ends here. *)
    let leaving, staying = List.partition (fun (l, _) -> l.l_last = i) !active in
    active := staying;
    List.iter
      (fun (l, _) ->
        match l.l_counter with Some c -> bind c (Sym.Unknown "post-loop") | None -> ())
      leaving
  done;
  let accesses = List.rev !accesses in
  let counters = List.rev !counters in
  let nonstatic_reason =
    List.fold_left
      (fun acc a -> match acc with Some _ -> acc | None -> Sym.first_unknown a.aexpr)
      None accesses
  in
  {
    kernel;
    accesses;
    counters;
    guards = List.rev !guards;
    static = nonstatic_reason = None;
    nonstatic_reason;
    counter_reads = classify_counters counters;
  }

let counter_of r cid = List.find (fun c -> c.cid = cid) r.counters
