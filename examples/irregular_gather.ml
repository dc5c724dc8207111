(* Runtime dependency analysis on an input-dependent kernel — the paper's
   stated future work, implemented here with the concrete interpreter.

   A gather kernel OUT[i] = X[IDX[i]] defeats Algorithm 1 (its address
   derives from a global load), so static BlockMaestro conservatively
   treats the pair as fully connected: a kernel-level barrier.  With the
   actual index data in hand, runtime analysis recovers the real
   thread-block dependency graph and unlocks fine-grain overlap.

   Run with: dune exec examples/irregular_gather.exe *)

open Blockmaestro

let tbs = 1024
let block = 64
let n = tbs * block

(* K1: X[i] = f(A[i]); K2: OUT[i] = X[IDX[i]] (banded permutation). *)
let producer = Templates.map1 ~name:"ig_produce" ~work:600

let gather =
  let b = Builder.create "ig_gather" in
  let i = Builder.global_linear_index b in
  let bound = Builder.param_u32 b "n" in
  Builder.guard_return_if_ge b i bound;
  let idx_ptr = Builder.param_ptr b "IDX" in
  let x_ptr = Builder.param_ptr b "X" in
  let out_ptr = Builder.param_ptr b "OUT" in
  let idx_addr = Builder.elem_addr b ~base:idx_ptr ~index:i ~scale:4 in
  let v = Builder.ld_global_indirect_f32 b ~index_addr:idx_addr ~base:x_ptr in
  let v = Builder.fcompute b 600 [ v ] in
  let out_addr = Builder.elem_addr b ~base:out_ptr ~index:i ~scale:4 in
  Builder.st_global_f32 b ~addr:out_addr ~offset:0 ~value:v;
  Builder.finish b

let () =
  let d = Dsl.create "irregular-gather" in
  let a = Dsl.buffer d ~elems:n in
  let idx = Dsl.buffer d ~elems:n in
  let x = Dsl.buffer d ~elems:n in
  let out = Dsl.buffer d ~elems:n in
  Dsl.h2d d a;
  Dsl.h2d d idx;
  Dsl.launch d producer ~grid:tbs ~block
    ~args:[ ("n", Command.Int n); ("IN", Command.Buf a); ("OUT", Command.Buf x) ];
  Dsl.launch d gather ~grid:tbs ~block
    ~args:
      [ ("n", Command.Int n); ("IDX", Command.Buf idx); ("X", Command.Buf x);
        ("OUT", Command.Buf out) ];
  Dsl.d2h d out;
  let app = Dsl.app d in

  print_endline "=== Static analysis (Algorithm 1) ===";
  (match Slice.classify_kernel gather with
  | Slice.Static -> print_endline "gather: static (unexpected!)"
  | Slice.Non_static { reason; _ } -> Printf.printf "gather: NON-STATIC (%s)\n" reason);
  let prep = Runner.prepare Mode.Producer_priority app in
  Printf.printf "static pair classification: %s (conservative barrier)\n"
    (Pattern.name prep.Prep.p_launches.(1).Prep.li_pattern);

  (* The device-memory image: a banded permutation IDX[i] = i +- small. *)
  print_endline "\n=== Runtime analysis over the actual index data ===";
  let mem = Interp.memory () in
  let idx_base = (List.nth (Command.launches app) 1).Command.args in
  let idx_addr = match List.assoc "IDX" idx_base with Command.Buf b -> b.Command.base | _ -> 0 in
  for i = 0 to n - 1 do
    let target = max 0 (min (n - 1) (i + (((i * 7) mod 33) - 16))) in
    Interp.poke_u32 mem (idx_addr + (4 * i)) target
  done;
  let spec = List.nth (Command.launches app) 1 in
  let launch = Command.footprint_launch spec in
  let dynamic_fp = Dynamic.footprints gather launch mem in
  let producer_fp =
    let li = prep.Prep.p_launches.(0) in
    Footprint.of_result li.Prep.li_result (Command.footprint_launch li.Prep.li_spec)
  in
  let relation = Bipartite.relate producer_fp dynamic_fp in
  Format.printf "runtime pair classification: %a@." Bipartite.pp_relation relation;
  (match relation with
  | Bipartite.Graph g ->
    Printf.printf "max in-degree: %d (banded gather touches neighbouring blocks only)\n"
      (Bipartite.max_in_degree g)
  | Bipartite.Independent | Bipartite.Fully_connected -> ());

  print_endline "\n=== Effect on execution ===";
  let cfg = Config.titan_x_pascal in
  let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
  let static_bm = Sim.run cfg (Mode.Consumer_priority 2) prep in
  let runtime_prep = Prep.with_relation prep ~seq:1 relation in
  let runtime_bm = Sim.run cfg (Mode.Consumer_priority 2) runtime_prep in
  Printf.printf "baseline                      %8.2f us\n" base.Stats.total_us;
  Printf.printf "BlockMaestro, static (barrier)%8.2f us  (%s)\n" static_bm.Stats.total_us
    (Report.pct (Stats.speedup ~baseline:base static_bm));
  Printf.printf "BlockMaestro, runtime graphs  %8.2f us  (%s)\n" runtime_bm.Stats.total_us
    (Report.pct (Stats.speedup ~baseline:base runtime_bm))
