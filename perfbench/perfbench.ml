(* The repository benchmark: one closed-loop client, one domain.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times whole cycles of requests for S seconds of request time
   and prints the end-to-end metrics; --trace 1 runs the same requests
   three times — untimed by spans, spanned, and under the allocation
   profiler — and prints the per-layer metrics.  Both check every result
   (Verify) after the timed window, print a human-readable table, and end
   with one JSON line: {"correct", "attempted", "failed", "metrics"}.
   Exit 0 when every result is correct, 1 when some are not, 2 on bad
   arguments or a missing reference file (then no JSON line is printed). *)

open Blockmaestro
module W = Work
module V = Verify

type opts = {
  workload : W.workload;
  workload_name : string;
  seed : int;
  seconds : float;
  trace : bool;
  reference : string;
  work_dir : string;
  perturb : bool;
}

let usage =
  "usage: perfbench --workload (cold-launch|warm-sweep|disk-roundtrip) --seed N --seconds S \
   --trace 0|1 [--reference BENCH_0.json] [--work-dir DIR] [--perturb-reference]"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let reference = ref "BENCH_0.json" and work_dir = ref ".bench_work" and perturb = ref false in
  let int_arg name v = match int_of_string_opt v with Some n -> n | None -> die (name ^ " expects an integer") in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.assoc_opt v W.workloads with
      | Some w -> workload := Some (v, w)
      | None -> die ("unknown workload " ^ v));
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> die "--seconds expects a positive number");
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> die "--trace expects 0 or 1");
      go rest
    | "--reference" :: v :: rest ->
      reference := v;
      go rest
    | "--work-dir" :: v :: rest ->
      work_dir := v;
      go rest
    | "--perturb-reference" :: rest ->
      perturb := true;
      go rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some (workload_name, workload), Some seed, Some seconds, Some trace ->
    {
      workload;
      workload_name;
      seed;
      seconds;
      trace;
      reference = !reference;
      work_dir = Filename.concat !work_dir workload_name;
      perturb = !perturb;
    }
  | _ -> die "--workload, --seed, --seconds and --trace are required"

(* --- one request ------------------------------------------------------------ *)

type sample = {
  latency_s : float;
  minor_words : float;
  tbs : int;
  prep_s : float;
  launches : int;
}

let tbs_of stats = Array.fold_left (fun acc (s : Stats.t) -> acc + Array.length s.Stats.records) 0 stats

let execute tr (w : W.world) req =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r =
    match Tracer.request tr (fun () -> W.exec tr w req) with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = Unix.gettimeofday () in
  let minor_words = Gc.minor_words () -. w0 in
  (* Everything below is bookkeeping outside the request's time. *)
  match r with
  | Error e ->
    ( { latency_s = t1 -. t0; minor_words; tbs = 0; prep_s = 0.0; launches = 0 },
      { V.o_req = req; o_sig = ""; o_cycles = Float.nan; o_error = Some e } )
  | Ok r ->
    let t = w.W.tally in
    Option.iter (W.tally_cache t) r.W.cache;
    let store_faults = match r.W.store with Some s -> W.tally_store t s | None -> 0 in
    let tbs = tbs_of r.W.stats in
    (match req with
    | W.Cold _ | W.Warm_sim _ | W.Disk_run _ | W.Unseen_run _ -> t.W.sim_tbs <- t.W.sim_tbs + tbs
    | W.Warm_replay _ | W.Warm_corun _ | W.Round_trip _ -> ());
    (match req with
    | W.Round_trip (i, _) ->
      t.W.graph_bytes <- t.W.graph_bytes + (Unix.stat (W.graph_file w i)).Unix.st_size;
      (* Graph.capture and Graph.validate each fingerprint the app inside
         the library, out of reach of outside spans; the traced run times
         the public Graph.fingerprint once beside each round trip instead,
         outside the request span. *)
      (match tr with
      | Some { Tracer.mode = Tracer.Wall; _ } ->
        let app = i.W.build () in
        ignore (Tracer.span tr "graph.fingerprint" (fun () -> Graph.fingerprint W.cfg app))
      | _ -> ())
    | _ -> ());
    let error =
      if store_faults > 0 then Some (Printf.sprintf "store reported %d corrupt/write errors" store_faults)
      else None
    in
    ( { latency_s = t1 -. t0; minor_words; tbs; prep_s = r.W.prep_s; launches = r.W.launches },
      {
        V.o_req = req;
        o_sig = V.signatures r.W.stats;
        o_cycles = (match r.W.stats with [| s |] -> V.cycles s | _ -> Float.nan);
        o_error = error;
      } )

(* The seed's generated inputs, so two seeds can be compared. *)
let print_inputs (w : W.world) =
  Array.iter
    (fun (i : W.input) -> if i.W.generated then Printf.printf "input %s: %s\n" i.W.name i.W.desc)
    w.W.inputs;
  Array.iter
    (fun (c : W.corun) -> if c.W.c_generated then Printf.printf "input %s: %s\n" c.W.c_name c.W.c_desc)
    w.W.coruns

(* Whole cycles until the requests have taken [budget] seconds. *)
let timed_loop tr w ~budget =
  let spent = ref 0.0 and acc = ref [] in
  while !spent < budget do
    List.iter
      (fun req ->
        let s, o = execute tr w req in
        spent := !spent +. s.latency_s;
        acc := (req, s, o) :: !acc)
      (W.cycle w)
  done;
  List.rev !acc

let replay_loop tr w reqs = List.map (fun req -> let s, o = execute tr w req in (req, s, o)) reqs

(* --- statistics ------------------------------------------------------------- *)

(* Linear interpolation between the closest ranks of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let x = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate x in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((x -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* The highest percentile of the ladder with at least ten samples beyond it. *)
let tail_percentile n =
  match List.find_opt (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0) [ 99.9; 99.0; 95.0; 90.0; 75.0 ] with
  | Some p -> p
  | None -> 50.0

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 50.0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* --- output ------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~attempted ~failed ~correct metrics =
  List.iter (fun m -> Printf.printf "  %-28s %16.6f %-8s %s\n" m.name m.value m.unit_ m.note) metrics;
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let report_check ~attempted (failed, problems) =
  Printf.printf "check: %d of %d requests failed (fail_ratio %.6f)\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iteri (fun i p -> if i < 10 then Printf.printf "  FAIL %s\n" p) problems;
  if List.length problems > 10 then Printf.printf "  ... %d more\n" (List.length problems - 10)

(* --- trace 0: end-to-end metrics -------------------------------------------- *)

(* Each set-up and each timed pass starts from a compacted heap, so the
   garbage an earlier phase left does not land in its measurements. *)
let settle () = Gc.compact ()

(* Set-up is timed several times per run and reported as the median.
   cold-launch's set-up only builds the apps (milliseconds), so it takes
   more samples to be as steady as the others' second-long set-ups. *)
let setups = function W.Cold_launch -> 25 | W.Warm_sweep | W.Disk_roundtrip -> 3

let end_to_end o reference =
  let setups = setups o.workload in
  let timed_setup () =
    settle ();
    let t0 = Unix.gettimeofday () in
    let w = W.setup o.workload ~seed:o.seed ~work_dir:o.work_dir in
    (w, Unix.gettimeofday () -. t0)
  in
  (* Only the set-up figures of the earlier worlds are kept. *)
  let earlier =
    List.init (setups - 1) (fun _ ->
        let w, dt = timed_setup () in
        (dt, w.W.setup_prep_s, w.W.setup_launches))
  in
  let w, dt = timed_setup () in
  let setup_figures = earlier @ [ (dt, w.W.setup_prep_s, w.W.setup_launches) ] in
  let setup_s = median (List.map (fun (dt, _, _) -> dt) setup_figures) in
  print_inputs w;
  settle ();
  let runs = timed_loop None w ~budget:o.seconds in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let samples = List.map (fun (_, s, _) -> s) runs in
  let n = List.length samples in
  let lat = Array.of_list (List.map (fun s -> s.latency_s *. 1e3) samples) in
  Array.sort compare lat;
  let busy = sum (fun s -> s.latency_s) samples in
  let tail_p = tail_percentile n in
  let beyond = n - int_of_float (Float.ceil (tail_p /. 100.0 *. float_of_int n)) in
  let analysis_us_per_launch, analysis_note =
    match o.workload with
    | W.Warm_sweep ->
      (* Preparation happens only in set-up here. *)
      ( median
          (List.map (fun (_, prep_s, launches) -> prep_s *. 1e6 /. float_of_int launches) setup_figures),
        Printf.sprintf "set-up, %d launches, median of %d" w.W.setup_launches setups )
    | W.Cold_launch | W.Disk_roundtrip ->
      let launches = List.fold_left (fun acc s -> acc + s.launches) 0 samples in
      ( sum (fun s -> s.prep_s) samples *. 1e6 /. float_of_int launches,
        Printf.sprintf "%d launches prepared" launches )
  in
  let check = V.check ~reference ~perturb:o.perturb (List.map (fun (_, _, o) -> o) runs) in
  let failed = fst check in
  Printf.printf "workload %s, seed %d: closed loop, 1 client, 1 domain; %d requests in %.3f s of requests\n"
    o.workload_name o.seed n busy;
  report_check ~attempted:n check;
  let ns = Printf.sprintf "n=%d" n in
  emit ~attempted:n ~failed ~correct:(failed = 0)
    [
      { name = "req_ms_p50"; value = percentile lat 50.0; unit_ = "ms"; note = ns ^ " p50" };
      {
        name = "req_ms_tail";
        value = percentile lat tail_p;
        unit_ = "ms";
        note = Printf.sprintf "%s p%g (%d beyond)" ns tail_p beyond;
      };
      {
        name = "tbs_per_s";
        value = float_of_int (List.fold_left (fun acc s -> acc + s.tbs) 0 samples) /. busy;
        unit_ = "TB/s";
        note = Printf.sprintf "%s simulated TBs per host second" ns;
      };
      { name = "analysis_us_per_launch"; value = analysis_us_per_launch; unit_ = "us"; note = analysis_note };
      {
        name = "minor_mwords_per_req";
        value = sum (fun s -> s.minor_words) samples /. float_of_int n /. 1e6;
        unit_ = "Mwords";
        note = ns ^ " mean";
      };
      { name = "peak_heap_mb"; value = peak_heap_mb; unit_ = "MB"; note = "Gc top_heap_words" };
      { name = "setup_s"; value = setup_s; unit_ = "s"; note = Printf.sprintf "median of %d set-ups" setups };
    ];
  failed = 0

(* --- trace 1: per-layer metrics ---------------------------------------------- *)

let layers =
  [
    "build"; "prep"; "symeval"; "footprint"; "costmodel"; "relate"; "encode"; "reorder";
    "graph.capture"; "graph.fingerprint"; "graph.save"; "graph.load"; "graph.validate"; "sim";
    "replay"; "multi"; "check";
  ]

(* Stages seen only through Prep's ?prof hook: their allocation comes from
   the pass whose profiler clock is Gc.minor_words. *)
let prof_layers = [ "symeval"; "footprint"; "costmodel"; "relate"; "encode"; "reorder" ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let replay_events (w : W.world) reqs =
  (* Event counts are deterministic: replay each distinct (graph, mode)
     once with a metrics registry, untimed, and weight by its calls. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun req ->
      match req with
      | W.Warm_replay (i, m) | W.Round_trip (i, m) ->
        let key = (i.W.name, Mode.name m) in
        let n = match Hashtbl.find_opt seen key with Some (n, _) -> n | None -> 0 in
        Hashtbl.replace seen key (n + 1, req)
      | _ -> ())
    reqs;
  Hashtbl.fold
    (fun _ (n, req) acc ->
      let m, graph =
        match req with
        | W.Round_trip (i, m) -> (
          match Graph.load (W.graph_file w i) with
          | Ok g -> (m, g)
          | Error e -> failwith (Format.asprintf "graph reload: %a" Graph.pp_error e))
        | W.Warm_replay (i, m) -> (m, Hashtbl.find w.W.graphs i.W.name)
        | _ -> assert false
      in
      let metrics = Metrics.create () in
      ignore (Replay.run ~metrics W.cfg m graph);
      let events =
        match Metrics.find_counter metrics "graph.replay.events" with
        | Some c -> Metrics.counter_value c
        | None -> 0.0
      in
      acc +. (float_of_int n *. events))
    seen 0.0

let per_layer o reference =
  (* Pass A: untraced, timed for a third of the budget; it fixes the
     request list the other two passes replay. *)
  settle ();
  let w_a = W.setup o.workload ~seed:o.seed ~work_dir:o.work_dir in
  print_inputs w_a;
  settle ();
  let runs_a = timed_loop None w_a ~budget:(o.seconds /. 3.0) in
  let reqs = List.map (fun (r, _, _) -> r) runs_a in
  (* Pass B: the same requests under wall-clock spans, set-up included. *)
  let tr_b = Tracer.create Tracer.Wall in
  settle ();
  let w_b = W.setup ~tr:tr_b o.workload ~seed:o.seed ~work_dir:o.work_dir in
  settle ();
  let runs_b = replay_loop (Some tr_b) w_b reqs in
  (* Pass C: the same requests again, to measure the Prep stages' allocation. *)
  let tr_c = Tracer.create Tracer.Alloc in
  let w_c = W.setup ~tr:tr_c o.workload ~seed:o.seed ~work_dir:o.work_dir in
  let runs_c = replay_loop (Some tr_c) w_c reqs in
  let events = replay_events w_c reqs in
  let outcomes = List.map (fun (_, _, o) -> o) (runs_a @ runs_b @ runs_c) in
  let attempted = List.length outcomes in
  let check = V.check ~tr:tr_b ~reference ~perturb:o.perturb outcomes in
  let failed = fst check in
  let lat runs = sum (fun (_, s, _) -> s.latency_s) runs in
  let untraced_s = lat runs_a and traced_s = lat runs_b in
  Printf.printf
    "workload %s, seed %d, traced: %d requests per pass; untraced %.3f s, traced %.3f s\n"
    o.workload_name o.seed (List.length reqs) untraced_s traced_s;
  report_check ~attempted check;
  if tr_b.Tracer.nesting_violations > 0 then
    Printf.printf "  FAIL %d requests whose self times exceed their span\n"
      tr_b.Tracer.nesting_violations;
  let layer_metrics name =
    let a = Tracer.find tr_b name in
    let get f = match a with Some a -> f a | None -> 0.0 in
    let minor =
      if List.mem name prof_layers then
        match Tracer.find tr_c name with Some a -> a.Tracer.minor_words | None -> 0.0
      else get (fun a -> a.Tracer.minor_words)
    in
    [
      { name = name ^ ".calls"; value = get (fun a -> float_of_int a.Tracer.calls); unit_ = "count"; note = "" };
      { name = name ^ ".ms"; value = get (fun a -> a.Tracer.busy_s *. 1e3); unit_ = "ms"; note = "busy" };
      { name = name ^ ".self_ms"; value = get (fun a -> a.Tracer.self_s *. 1e3); unit_ = "ms"; note = "" };
      { name = name ^ ".minor_mwords"; value = minor /. 1e6; unit_ = "Mwords"; note = "" };
      {
        name = name ^ ".failures";
        value = get (fun a -> float_of_int a.Tracer.failures);
        unit_ = "count";
        note = "";
      };
    ]
  in
  let t = w_b.W.tally in
  let sim_ms = match Tracer.find tr_b "sim" with Some a -> a.Tracer.busy_s *. 1e3 | None -> 0.0 in
  let c name value unit_ note = { name; value; unit_; note } in
  let metrics =
    List.concat_map layer_metrics layers
    @ [
        c "cache.hit_ratio" (ratio t.W.cache_hits t.W.cache_lookups) "ratio" "of cache.lookups";
        c "cache.lookups" (float_of_int t.W.cache_lookups) "count" "Cache.counters";
        c "store.hit_ratio" (ratio t.W.store_hits t.W.store_lookups) "ratio" "of store.lookups";
        c "store.lookups" (float_of_int t.W.store_lookups) "count" "Store.counters";
        c "store.bytes_written" (float_of_int t.W.store_bytes_written) "bytes" "";
        c "store.corrupt" (float_of_int t.W.store_corrupt) "count" "";
        c "store.write_errors" (float_of_int t.W.store_write_errors) "count" "";
        c "graph.bytes" (float_of_int t.W.graph_bytes) "bytes" "over graph.save.calls";
        c "sim.us_per_tb"
          (if t.W.sim_tbs = 0 then 0.0 else sim_ms *. 1e3 /. float_of_int t.W.sim_tbs)
          "us/TB" "of sim.tbs";
        c "sim.tbs" (float_of_int t.W.sim_tbs) "count" "TBs simulated by Sim.run";
        c "replay.events" events "count" "over replay.calls";
        c "trace.overhead_pct" ((traced_s -. untraced_s) /. untraced_s *. 100.0) "%" "of trace.untraced_ms";
        c "trace.untraced_ms" (untraced_s *. 1e3) "ms" "same requests, no spans";
      ]
  in
  let correct = failed = 0 && tr_b.Tracer.nesting_violations = 0 in
  emit ~attempted ~failed ~correct metrics;
  correct

let () =
  let o = parse_args () in
  let reference =
    match V.load_reference o.reference with
    | Ok r -> r
    | Error msg -> die (Printf.sprintf "cannot load reference %s: %s" o.reference msg)
  in
  let correct =
    Fun.protect
      ~finally:(fun () ->
        W.rm_rf o.work_dir;
        try Sys.rmdir (Filename.dirname o.work_dir) with Sys_error _ -> ())
      (fun () -> if o.trace then per_layer o reference else end_to_end o reference)
  in
  exit (if correct then 0 else 1)
