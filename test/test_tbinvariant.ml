(* Launch-time analysis evaluates what reads no thread-block quantity once
   per launch (Footprint.of_result, Footprint.dynamic_counts).  These tests
   hold it to a naive reference, kept here, that evaluates every access and
   every trip count in full for every TB: footprints must be structurally
   equal and dynamic instruction counts bit-identical, on the suite, on
   generated apps and on hand-built kernels aimed at the corner cases —
   a trip count that reads %ctaid, zero-trip loops, a trip count that is
   not static, tail-TB guard caps (a fully dead TB included) and an access
   whose operands raise a zero-trip Exit and a Not_static in either
   order. *)

open Bm_ptx
module T = Types
module B = Builder
module I = Bm_analysis.Sinterval
module Sym = Bm_analysis.Sym
module Symeval = Bm_analysis.Symeval
module Footprint = Bm_analysis.Footprint
module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Prep = Bm_maestro.Prep
module Dsl = Bm_workloads.Dsl
module Genapp = Bm_workloads.Genapp
module Suite = Bm_workloads.Suite
module Rng = Bm_engine.Rng

(* --- the naive per-TB reference ----------------------------------------- *)

module Ref = struct
  exception Not_static of string

  type env = {
    launch : Footprint.launch;
    cta : T.dim3;
    result : Symeval.result;
    tid_cap : int option;
  }

  let cta_of_tb (launch : Footprint.launch) tb =
    let gx = launch.grid.T.dx and gy = launch.grid.T.dy in
    { T.dx = tb mod gx; dy = tb / gx mod gy; dz = tb / (gx * gy) }

  let axis_of (d : T.dim3) = function T.X -> d.T.dx | T.Y -> d.T.dy | T.Z -> d.T.dz

  let special_interval env = function
    | T.Tid T.X ->
      let hi = axis_of env.launch.block T.X - 1 in
      let hi = match env.tid_cap with Some c -> min hi c | None -> hi in
      I.make ~lo:0 ~hi:(max 0 hi) ~stride:1
    | T.Tid a -> I.make ~lo:0 ~hi:(max 0 (axis_of env.launch.block a - 1)) ~stride:1
    | T.Ntid a -> I.singleton (axis_of env.launch.block a)
    | T.Ctaid a -> I.singleton (axis_of env.cta a)
    | T.Nctaid a -> I.singleton (axis_of env.launch.grid a)

  let rec eval env (e : Sym.t) : I.t =
    match e with
    | Sym.Const n -> I.singleton n
    | Sym.Param p -> (
      match List.assoc_opt p env.launch.args with
      | Some v -> I.singleton v
      | None -> raise (Not_static ("unbound parameter " ^ p)))
    | Sym.Special s -> special_interval env s
    | Sym.Counter cid -> counter_interval env cid
    | Sym.Add (a, b) -> I.add (eval env a) (eval env b)
    | Sym.Sub (a, b) -> I.sub (eval env a) (eval env b)
    | Sym.Mul (a, b) -> I.mul (eval env a) (eval env b)
    | Sym.Div (a, b) ->
      let bi = eval env b in
      if bi.I.stride = 0 && bi.I.lo <> 0 then I.div_const (eval env a) bi.I.lo
      else raise (Not_static "division by a non-constant")
    | Sym.Rem (a, b) ->
      let bi = eval env b in
      if bi.I.stride = 0 && bi.I.lo <> 0 then I.rem_const (eval env a) bi.I.lo
      else raise (Not_static "remainder by a non-constant")
    | Sym.Shr (a, b) ->
      let bi = eval env b in
      if bi.I.stride = 0 && bi.I.lo >= 0 then I.shr (eval env a) bi.I.lo
      else raise (Not_static "shift by a non-constant")
    | Sym.Min (a, b) -> I.min_ (eval env a) (eval env b)
    | Sym.Max (a, b) -> I.max_ (eval env a) (eval env b)
    | Sym.Unknown r -> raise (Not_static r)

  and counter_interval_opt env cid =
    let c = Symeval.counter_of env.result cid in
    let ii = eval env c.Symeval.init in
    let bi = eval env c.Symeval.bound in
    let stride =
      let s = abs c.Symeval.step in
      if ii.I.stride = 0 then s
      else
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        max 1 (gcd s ii.I.stride)
    in
    if c.Symeval.step > 0 then begin
      let hi =
        match c.Symeval.cmp with
        | T.Ge -> bi.I.hi - 1
        | T.Gt -> bi.I.hi
        | T.Eq | T.Ne -> bi.I.hi
        | T.Lt | T.Le -> raise (Not_static "unsupported upward loop exit condition")
      in
      if hi < ii.I.lo then None else Some (I.make ~lo:ii.I.lo ~hi ~stride)
    end
    else if c.Symeval.step < 0 then begin
      let lo =
        match c.Symeval.cmp with
        | T.Le -> bi.I.lo + 1
        | T.Lt -> bi.I.lo
        | T.Eq | T.Ne -> bi.I.lo
        | T.Ge | T.Gt -> raise (Not_static "unsupported downward loop exit condition")
      in
      if lo > ii.I.hi then None else Some (I.make ~lo ~hi:ii.I.hi ~stride)
    end
    else raise (Not_static "zero-step loop")

  and counter_interval env cid =
    match counter_interval_opt env cid with Some i -> i | None -> raise Exit

  let access_interval env (a : Symeval.access) =
    match eval env a.Symeval.aexpr with
    | i ->
      Some
        (if a.Symeval.abytes <= 1 then i
         else I.add i (I.make ~lo:0 ~hi:(a.Symeval.abytes - 1) ~stride:1))
    | exception Exit -> None

  let is_global_index_x (e : Sym.t) =
    let is_mul a b =
      match (a, b) with
      | Sym.Special (T.Ctaid T.X), Sym.Special (T.Ntid T.X)
      | Sym.Special (T.Ntid T.X), Sym.Special (T.Ctaid T.X) ->
        true
      | _ -> false
    in
    match e with
    | Sym.Add (Sym.Mul (a, b), Sym.Special (T.Tid T.X))
    | Sym.Add (Sym.Special (T.Tid T.X), Sym.Mul (a, b)) ->
      is_mul a b
    | _ -> false

  let tid_cap_of (r : Symeval.result) (launch : Footprint.launch) (cta : T.dim3) =
    List.fold_left
      (fun acc (g : Symeval.guard_constraint) ->
        if not (is_global_index_x g.Symeval.g_expr) then acc
        else
          let env = { launch; cta; result = r; tid_cap = None } in
          match eval env g.Symeval.g_bound with
          | b when b.I.stride = 0 ->
            let cap = b.I.lo - 1 - (cta.T.dx * launch.block.T.dx) in
            Some (match acc with Some c -> min c cap | None -> cap)
          | _ -> acc
          | exception Not_static _ -> acc
          | exception Exit -> acc)
      None r.Symeval.guards

  let of_result (r : Symeval.result) launch =
    match r.Symeval.nonstatic_reason with
    | Some reason -> Footprint.Conservative reason
    | None -> (
      try
        Footprint.Per_tb
          (Array.init (Footprint.tb_count launch) (fun tb ->
               let cta = cta_of_tb launch tb in
               match tid_cap_of r launch cta with
               | Some c when c < 0 -> { Footprint.freads = []; fwrites = [] }
               | tid_cap ->
                 let env = { launch; cta; result = r; tid_cap } in
                 let reads = ref [] and writes = ref [] in
                 List.iter
                   (fun (a : Symeval.access) ->
                     match access_interval env a with
                     | None -> ()
                     | Some i -> (
                       match a.Symeval.akind with
                       | `Read -> reads := i :: !reads
                       | `Write -> writes := i :: !writes))
                   r.Symeval.accesses;
                 { Footprint.freads = List.rev !reads; fwrites = List.rev !writes }))
      with Not_static reason -> Footprint.Conservative reason)

  (* A zero-trip enclosing loop makes a dependent trip count 0. *)
  let trip_count env cid =
    match counter_interval_opt env cid with
    | Some i -> float_of_int (I.count i)
    | None -> 0.0
    | exception Not_static _ -> 8.0
    | exception Exit -> 0.0

  let insts (r : Symeval.result) launch ~tb =
    let env = { launch; cta = cta_of_tb launch tb; result = r; tid_cap = None } in
    let body = r.Symeval.kernel.T.kbody in
    let mult = Array.make (Array.length body) 1.0 in
    List.iter
      (fun (c : Symeval.counter) ->
        let t = trip_count env c.Symeval.cid in
        for i = c.Symeval.entry to c.Symeval.last do
          mult.(i) <- mult.(i) *. t
        done)
      r.Symeval.counters;
    let total = ref 0.0 in
    Array.iteri
      (fun i instr -> match instr with T.Label _ -> () | T.I _ -> total := !total +. mult.(i))
      body;
    !total

  let mem_insts (r : Symeval.result) launch ~tb =
    let env = { launch; cta = cta_of_tb launch tb; result = r; tid_cap = None } in
    List.fold_left
      (fun acc (a : Symeval.access) ->
        acc +. List.fold_left (fun m cid -> m *. trip_count env cid) 1.0 a.Symeval.aloops)
      0.0 r.Symeval.accesses
end

(* --- comparison ----------------------------------------------------------- *)

let per_tb_counts = function
  | Footprint.Uniform u -> (Array.make u.tbs u.insts, Array.make u.tbs u.mem)
  | Footprint.Varying v -> (v.insts, v.mem)

(* [None] when the launch agrees with the reference, else what differs. *)
let disagreement (r : Symeval.result) (launch : Footprint.launch) =
  let n = Footprint.tb_count launch in
  let insts, mem = per_tb_counts (Footprint.dynamic_counts r launch) in
  let bits = Int64.bits_of_float in
  let counts_differ =
    Array.length insts <> n
    || Array.length mem <> n
    || List.exists
         (fun tb ->
           bits insts.(tb) <> bits (Ref.insts r launch ~tb)
           || bits mem.(tb) <> bits (Ref.mem_insts r launch ~tb))
         (List.init n Fun.id)
  in
  if counts_differ then Some "dynamic instruction counts"
  else if Footprint.of_result r launch <> Ref.of_result r launch then Some "footprints"
  else None

let check_launch what r launch =
  match disagreement r launch with
  | None -> ()
  | Some part -> Alcotest.failf "%s: %s differ from the per-TB reference" what part

(* Every distinct (kernel, launch configuration) of an app. *)
let app_disagreement (app : Command.app) =
  let seen = Hashtbl.create 64 in
  let results = Hashtbl.create 16 in
  List.find_map
    (fun (spec : Command.launch_spec) ->
      let k = spec.Command.kernel in
      let fl = Command.footprint_launch spec in
      if Hashtbl.mem seen (k.T.kname, fl) then None
      else begin
        Hashtbl.add seen (k.T.kname, fl) ();
        let r =
          match Hashtbl.find_opt results k.T.kname with
          | Some r -> r
          | None ->
            let r = Symeval.analyze k in
            Hashtbl.add results k.T.kname r;
            r
        in
        Option.map (fun part -> (k.T.kname, part)) (disagreement r fl)
      end)
    (Command.launches app)

let test_suite_matches_reference () =
  List.iter
    (fun (name, build) ->
      match app_disagreement (build ()) with
      | None -> ()
      | Some (kernel, part) -> Alcotest.failf "%s/%s: %s differ from the reference" name kernel part)
    Suite.all

let prop_genapp_matches_reference =
  QCheck2.Test.make ~name:"generated apps match the per-TB reference" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let s = Genapp.generate ~max_streams:3 ~max_len:6 ~max_grid:48 (Rng.create seed) seed in
      match app_disagreement (Genapp.build s) with
      | None -> true
      | Some (kernel, part) ->
        QCheck2.Test.fail_reportf "%s/%s: %s differ" (Genapp.to_string s) kernel part)

(* --- hand-built corner cases ------------------------------------------ *)

let launch grid args = { Footprint.grid = T.dim3 grid; block = T.dim3 32; args }

let read_elem b base index = ignore (B.ld_global_f32 b ~addr:(B.elem_addr b ~base ~index ~scale:4) ~offset:0)

let write_gid b =
  let out = B.param_ptr b "OUT" in
  let z = B.fresh_f b in
  B.emit b (T.I { op = T.Mov; ty = T.F32; dst = Some z; srcs = [ T.Fimm 0.0 ]; offset = 0; guard = None });
  B.st_global_f32 b ~addr:(B.elem_addr b ~base:out ~index:(B.global_linear_index b) ~scale:4) ~offset:0
    ~value:z

(* for i < ctaid.x: read IN[i]. *)
let ctaid_trip_kernel () =
  let b = B.create "ctaid_trip" in
  let inp = B.param_ptr b "IN" in
  B.loop b ~init:(T.Imm 0) ~bound:(B.block_index b) ~step:1 (fun i -> read_elem b inp i);
  write_gid b;
  B.finish b

(* for i0 < outer: for i1 = i0 .. inner: read IN[i1]. *)
let triangular_kernel () =
  let b = B.create "triangular" in
  let outer = B.param_u32 b "outer" and inner = B.param_u32 b "inner" in
  let inp = B.param_ptr b "IN" in
  B.loop b ~init:(T.Imm 0) ~bound:outer ~step:1 (fun i0 ->
      B.loop b ~init:i0 ~bound:inner ~step:1 (fun i1 -> read_elem b inp i1));
  write_gid b;
  B.finish b

(* The loop bound is loaded from memory: the trip count is not static. *)
let loaded_bound_kernel () =
  let b = B.create "loaded_bound" in
  let inp = B.param_ptr b "IN" and lim = B.param_ptr b "LIM" in
  let bound = B.ld_global_f32 b ~addr:(B.elem_addr b ~base:lim ~index:(B.block_index b) ~scale:4) ~offset:0 in
  B.loop b ~init:(T.Imm 0) ~bound ~step:1 (fun i -> read_elem b inp i);
  write_gid b;
  B.finish b

(* Guarded by gid < n, with a thread-strided loop for i = tid.x; i < m;
   i += 32: the cap on tid.x reaches the loop counter. *)
let guarded_strided_kernel () =
  let b = B.create "guarded_strided" in
  let n = B.param_u32 b "n" and m = B.param_u32 b "m" in
  let inp = B.param_ptr b "IN" in
  B.guard_return_if_ge b (B.global_linear_index b) n;
  B.loop b ~init:(B.thread_index b) ~bound:m ~step:32 (fun i -> read_elem b inp i);
  write_gid b;
  B.finish b

(* Inside for i0 < outer, read IN[i0 + n / tid.x] ([exit_first]) or
   IN[n / tid.x + i0]: with outer = 0 one operand raises the zero-trip
   Exit and the other Not_static (a divisor that is not a constant). *)
let exit_vs_not_static_kernel ~exit_first =
  let b = B.create "exit_vs_not_static" in
  let outer = B.param_u32 b "outer" and n = B.param_u32 b "n" in
  let inp = B.param_ptr b "IN" in
  B.loop b ~init:(T.Imm 0) ~bound:outer ~step:1 (fun i0 ->
      let q = B.div_u32 b n (B.thread_index b) in
      read_elem b inp (if exit_first then B.add_u32 b i0 q else B.add_u32 b q i0));
  write_gid b;
  B.finish b

let bufs = [ ("IN", 0x10000); ("LIM", 0x40000); ("OUT", 0x80000) ]

let test_ctaid_trip_count () =
  let r = Symeval.analyze (ctaid_trip_kernel ()) in
  Alcotest.(check bool) "the trip count reads %ctaid" true
    (r.Symeval.counter_reads.(0) = Symeval.Reads_ctaid);
  let l = launch 6 bufs in
  (match Footprint.dynamic_counts r l with
  | Footprint.Varying v ->
    Alcotest.(check bool) "TB 5 runs more than TB 0" true (v.insts.(5) > v.insts.(0))
  | Footprint.Uniform _ -> Alcotest.fail "a %ctaid trip count must vary per TB");
  check_launch "ctaid trip count" r l

let test_zero_trip_loops () =
  let r = Symeval.analyze (triangular_kernel ()) in
  List.iter
    (fun (outer, inner) ->
      check_launch
        (Printf.sprintf "triangular outer=%d inner=%d" outer inner)
        r
        (launch 3 (("outer", outer) :: ("inner", inner) :: bufs)))
    [ (0, 8); (4, 0); (4, 2); (0, 0); (3, 9) ]

let test_not_static_trip_count () =
  let r = Symeval.analyze (loaded_bound_kernel ()) in
  let l = launch 4 bufs in
  (match Footprint.of_result r l with
  | Footprint.Conservative _ -> ()
  | Footprint.Per_tb _ -> Alcotest.fail "an access under a loaded bound is not static");
  (match Footprint.dynamic_counts r l with
  | Footprint.Uniform u ->
    (* The loop assumes 8 trips: its in-loop load counts 8 times. *)
    Alcotest.(check (float 0.0)) "8.0 fallback" 10.0 u.mem
  | Footprint.Varying _ -> Alcotest.fail "a loaded bound reads no %ctaid");
  check_launch "loaded bound" r l

let test_guard_caps () =
  let r = Symeval.analyze (guarded_strided_kernel ()) in
  Alcotest.(check bool) "the strided counter reads tid.x" true
    (r.Symeval.counter_reads.(0) = Symeval.Reads_tid_x);
  (* 4 TBs of 32 threads over n = 40: TB 1 is capped to 8 threads, TBs 2
     and 3 are dead. *)
  let l = launch 4 (("n", 40) :: ("m", 50) :: bufs) in
  (match Footprint.of_result r l with
  | Footprint.Per_tb fps ->
    Alcotest.(check bool) "dead TB touches nothing" true
      (fps.(3) = { Footprint.freads = []; fwrites = [] })
  | Footprint.Conservative why -> Alcotest.fail why);
  (* n = 33 leaves TB 1 one thread, whose counter then takes only 0 and
     32 below m = 50. *)
  List.iter
    (fun n ->
      check_launch (Printf.sprintf "guard n=%d" n) r (launch 4 (("n", n) :: ("m", 50) :: bufs)))
    [ 40; 33; 128; 0; 1; 97; 200 ]

let test_exit_and_not_static_order () =
  List.iter
    (fun exit_first ->
      let r = Symeval.analyze (exit_vs_not_static_kernel ~exit_first) in
      List.iter
        (fun outer ->
          check_launch
            (Printf.sprintf "exit_first=%b outer=%d" exit_first outer)
            r
            (launch 2 (("outer", outer) :: ("n", 64) :: bufs)))
        [ 0; 3 ])
    [ true; false ]

(* A triangular nest launched with outer = 0 used to raise Exit out of the
   cost model, and so out of Prep.prepare. *)
let test_zero_trip_outer_prepares () =
  let d = Dsl.create "triangular" in
  let inp = Dsl.buffer d ~elems:64 and out = Dsl.buffer d ~elems:64 in
  Dsl.h2d d inp;
  Dsl.launch d (triangular_kernel ()) ~grid:2 ~block:32
    ~args:
      [ ("outer", Command.Int 0); ("inner", Command.Int 8); ("IN", Command.Buf inp);
        ("OUT", Command.Buf out) ];
  Dsl.d2h d out;
  let prep = Prep.prepare Config.titan_x_pascal (Dsl.app d) in
  let li = prep.Prep.p_launches.(0) in
  match Footprint.dynamic_counts li.Prep.li_result (Command.footprint_launch li.Prep.li_spec) with
  | Footprint.Uniform u ->
    (* Only the global write executes: the nest never starts. *)
    Alcotest.(check (float 0.0)) "no loop load counted" 1.0 u.mem
  | Footprint.Varying _ -> Alcotest.fail "the nest reads no %ctaid"

let suite =
  [
    Alcotest.test_case "suite matches the per-TB reference" `Quick test_suite_matches_reference;
    QCheck_alcotest.to_alcotest prop_genapp_matches_reference;
    Alcotest.test_case "%ctaid trip count evaluated per TB" `Quick test_ctaid_trip_count;
    Alcotest.test_case "zero-trip loops" `Quick test_zero_trip_loops;
    Alcotest.test_case "not-static trip count: 8.0 fallback" `Quick test_not_static_trip_count;
    Alcotest.test_case "tail-TB guard caps" `Quick test_guard_caps;
    Alcotest.test_case "Exit and Not_static keep their order" `Quick test_exit_and_not_static_order;
    Alcotest.test_case "zero-trip outer loop prepares" `Quick test_zero_trip_outer_prepares;
  ]
