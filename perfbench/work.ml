(* The three workloads: their seeded inputs, their set-up, the request mix
   of one closed-loop cycle, and the execution of one request against the
   public library API.

   Every workload runs whole cycles.  A cycle holds each of its inputs a
   fixed number of times, in a seeded order and with seeded modes, so the
   mix of cheap and expensive requests is the same in every cycle and the
   percentiles do not depend on where the time budget happens to stop. *)

open Blockmaestro

let cfg = Config.titan_x_pascal

type input = {
  name : string;
  build : unit -> Command.app;
  generated : bool;  (* checked against the naive reference *)
  desc : string;  (* the generator spec, for generated apps *)
}

type corun = {
  c_name : string;
  c_apps : input array;
  c_submission : Multi.submission;
  c_spatial : Multi.spatial;
  c_generated : bool;
  c_desc : string;
}

type req =
  | Cold of input * Mode.t  (** build, prepare with a fresh cache, Sim.run *)
  | Warm_sim of input * Mode.t  (** Sim.run on the set-up preparation *)
  | Warm_replay of input * Mode.t  (** Replay.run on the set-up graph *)
  | Warm_corun of corun * Mode.t  (** Multi.run on the set-up preparations *)
  | Disk_run of input * Mode.t  (** fresh cache over the store, prepare, Sim.run *)
  | Unseen_run of input * Mode.t
      (** a [Disk_run] of a never-seen app: its preparation writes through *)
  | Round_trip of input * Mode.t  (** capture, save, load, validate, Replay.run *)

type workload = Cold_launch | Warm_sweep | Disk_roundtrip

let workloads =
  [ ("cold-launch", Cold_launch); ("warm-sweep", Warm_sweep); ("disk-roundtrip", Disk_roundtrip) ]

let fig9 = Array.of_list Mode.all_fig9
let warm_modes = Array.append fig9 [| Mode.Deadline_edf 2 |]

(* --- seeded inputs ------------------------------------------------------ *)

let suite_inputs =
  List.map (fun (name, build) -> { name; build; generated = false; desc = "suite" }) Suite.all

let spec_tbs (s : Genapp.spec) =
  Array.fold_left
    (List.fold_left (fun acc (k : Genapp.kspec) -> acc + k.Genapp.k_grid))
    0 s.Genapp.g_chains

(* Knobs above the fuzzer defaults (2 streams x 5 kernels x 16 TBs).  A
   draw is kept only if its kernel and TB counts fall in the bands, so
   every seed gets new apps of a similar cost, and the naive reference
   that checks each of them stays cheap. *)
let kernel_band = (30, 60)
let tb_band = (900, 1400)

let in_band (lo, hi) x = x >= lo && x <= hi

let rec banded_spec rng idx =
  let s = Genapp.generate ~max_streams:3 ~max_len:40 ~max_grid:64 rng idx in
  if in_band kernel_band (Genapp.kernels s) && in_band tb_band (spec_tbs s) then s
  else banded_spec rng (idx + 1)

let input_of_spec (s : Genapp.spec) =
  {
    name = s.Genapp.g_name;
    build = (fun () -> Genapp.build s);
    generated = true;
    desc = Genapp.to_string s;
  }

let generated_apps = 2

let generated_inputs seed =
  let rng = Rng.create seed in
  List.init generated_apps (fun i ->
      let s = banded_spec rng 0 in
      input_of_spec { s with Genapp.g_name = Printf.sprintf "gen%d" i })

(* Suite co-runs are partitioned 14+14, where the isolation theorem gives
   a cheap exact reference (the naive co-run reference takes seconds per
   suite pair).  GAUSSIAN+NW is the heavy pair. *)
let suite_pairs = [ ("GAUSSIAN", "NW"); ("AlexNet", "HS"); ("FDTD-2D", "GRAMSCHM") ]

let suite_input name = List.find (fun i -> String.equal i.name name) suite_inputs

let generated_coruns = 4

let corun_band = (600, 1400)

let generated_corun_list seed =
  let rng = Rng.create (seed lxor 0x3c6ef372) in
  let rec go idx n acc =
    if n = 0 then List.rev acc
    else
      let c = Genapp.generate_corun ~max_streams:3 ~max_len:20 ~max_grid:64 rng idx in
      let tbs = spec_tbs c.Genapp.c_a + spec_tbs c.Genapp.c_b in
      if not (in_band corun_band tbs) then go (idx + 1) n acc
      else
        let corun =
          {
            c_name = Printf.sprintf "corun%03d" idx;
            c_apps = [| input_of_spec c.Genapp.c_a; input_of_spec c.Genapp.c_b |];
            c_submission =
              (match c.Genapp.c_submission with
              | `Fifo -> Multi.Fifo
              | `Round_robin -> Multi.Round_robin
              | `Packed -> Multi.Packed);
            c_spatial =
              (match c.Genapp.c_partition with
              | None -> Multi.Shared
              | Some (sa, sb) -> Multi.Partitioned [| sa; sb |]);
            c_generated = true;
            c_desc = Genapp.corun_to_string c;
          }
        in
        go (idx + 1) (n - 1) (corun :: acc)
  in
  go 0 generated_coruns []

let suite_coruns =
  List.map
    (fun (a, b) ->
      {
        c_name = a ^ "+" ^ b;
        c_apps = [| suite_input a; suite_input b |];
        c_submission = Multi.Fifo;
        c_spatial = Multi.Partitioned [| 14; 14 |];
        c_generated = false;
        c_desc = "suite, partitioned 14+14";
      })
    suite_pairs

(* --- scratch directories ------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* --- per-pass tallies ----------------------------------------------------- *)

type tally = {
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable store_hits : int;
  mutable store_lookups : int;
  mutable store_bytes_written : int;
  mutable store_corrupt : int;
  mutable store_write_errors : int;
  mutable graph_bytes : int;
  mutable sim_tbs : int;
}

let new_tally () =
  {
    cache_hits = 0;
    cache_lookups = 0;
    store_hits = 0;
    store_lookups = 0;
    store_bytes_written = 0;
    store_corrupt = 0;
    store_write_errors = 0;
    graph_bytes = 0;
    sim_tbs = 0;
  }

let tally_cache t c =
  let k = Cache.counters c in
  let hits = k.Cache.kernel_hits + k.footprint_hits + k.profile_hits + k.rw_hits + k.pair_hits in
  let misses =
    k.Cache.kernel_misses + k.footprint_misses + k.profile_misses + k.rw_misses + k.pair_misses
  in
  t.cache_hits <- t.cache_hits + hits;
  t.cache_lookups <- t.cache_lookups + hits + misses

(* Returns the store's corrupt + write-error count, which fails a request. *)
let tally_store t s =
  let k = Store.counters s in
  t.store_hits <- t.store_hits + k.Store.disk_hits;
  t.store_lookups <- t.store_lookups + k.Store.disk_hits + k.Store.disk_misses;
  t.store_bytes_written <- t.store_bytes_written + k.Store.disk_bytes_written;
  t.store_corrupt <- t.store_corrupt + k.Store.disk_corrupt;
  t.store_write_errors <- t.store_write_errors + k.Store.disk_write_errors;
  k.Store.disk_corrupt + k.Store.disk_write_errors

(* --- world: what set-up leaves for the requests -------------------------- *)

type world = {
  workload : workload;
  inputs : input array;  (* suite apps, then generated apps *)
  coruns : corun array;
  preps : (string * bool, Prep.t) Hashtbl.t;  (* (app, reordered) *)
  graphs : (string, Graph.t) Hashtbl.t;
  work_dir : string;
  tally : tally;
  mutable setup_prep_s : float;  (* direct Prep.prepare time in set-up *)
  mutable setup_launches : int;
  mutable unseen : int;  (* never-seen apps drawn so far *)
  mutable cycles : int;
  phases : int array;  (* per request slot of a cycle *)
  mix : Rng.t;
  unseen_rng : Rng.t;
}

let store_dir w = Filename.concat w.work_dir "store"
let graph_file w (i : input) = Filename.concat (Filename.concat w.work_dir "graphs") (i.name ^ ".graph.json")

let open_store w =
  match Store.open_dir (store_dir w) with Ok s -> s | Error msg -> failwith ("store: " ^ msg)

let timed_prepare tr w ~reorder ?cache app =
  let t0 = Unix.gettimeofday () in
  let prep =
    Tracer.span_prof tr "prep" (fun prof -> Prep.prepare ~reorder ?prof ?cache cfg app)
  in
  let dt = Unix.gettimeofday () -. t0 in
  (match w with
  | Some w ->
    w.setup_prep_s <- w.setup_prep_s +. dt;
    w.setup_launches <- w.setup_launches + Array.length prep.Prep.p_launches
  | None -> ());
  (prep, dt)

(* Set-up: everything before the timed window.  cold-launch builds its
   apps once; warm-sweep prepares every app in both reorder classes into
   one in-memory cache and captures its graph there; disk-roundtrip starts
   from an empty store and writes every app through it. *)
let setup ?tr workload ~seed ~work_dir =
  let inputs = Array.of_list (suite_inputs @ generated_inputs seed) in
  let coruns =
    match workload with
    | Warm_sweep -> Array.of_list (suite_coruns @ generated_corun_list seed)
    | Cold_launch | Disk_roundtrip -> [||]
  in
  rm_rf work_dir;
  mkdir_p (Filename.concat work_dir "graphs");
  let w =
    {
      workload;
      inputs;
      coruns;
      preps = Hashtbl.create 64;
      graphs = Hashtbl.create 32;
      work_dir;
      tally = new_tally ();
      setup_prep_s = 0.0;
      setup_launches = 0;
      unseen = 0;
      cycles = 0;
      phases =
        (let r = Rng.create (seed + 0x2545f491) in
         Array.init 64 (fun _ -> Rng.int_below r 1_000_000));
      mix = Rng.create (seed + 0x9e3779b9);
      unseen_rng = Rng.create (seed + 0x7f4a7c15);
    }
  in
  let all_inputs =
    Array.to_list inputs @ List.concat_map (fun c -> Array.to_list c.c_apps) (Array.to_list coruns)
  in
  (match workload with
  | Cold_launch -> List.iter (fun i -> ignore (Tracer.span tr "build" i.build)) all_inputs
  | Warm_sweep ->
    let cache = Cache.create () in
    List.iter
      (fun i ->
        if not (Hashtbl.mem w.preps (i.name, false)) then begin
          let app = Tracer.span tr "build" i.build in
          List.iter
            (fun reorder ->
              let prep, _ = timed_prepare tr (Some w) ~reorder ~cache app in
              Hashtbl.replace w.preps (i.name, reorder) prep)
            [ false; true ];
          let graph =
            Tracer.span_prof tr "graph.capture" (fun prof -> Graph.capture ~cache ?prof cfg app)
          in
          Hashtbl.replace w.graphs i.name graph
        end)
      all_inputs;
    tally_cache w.tally cache
  | Disk_roundtrip ->
    List.iter
      (fun i ->
        let app = Tracer.span tr "build" i.build in
        let store = open_store w in
        let cache = Cache.create ~store () in
        List.iter
          (fun reorder -> ignore (timed_prepare tr (Some w) ~reorder ~cache app))
          [ false; true ];
        tally_cache w.tally cache;
        if tally_store w.tally store > 0 then failwith ("store corrupt during set-up: " ^ i.name))
      all_inputs);
  w

(* --- the request mix ------------------------------------------------------ *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int_below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Never-seen generated apps per disk-roundtrip cycle: each is prepared
   cold through the store, so write-through continues all run long. *)
let unseen_per_cycle = 2

(* The heavy requests — GAUSSIAN (510 launches) cold, the GAUSSIAN+NW
   co-run, the GAUSSIAN and NW graph round trips — appear [n] times per
   cycle, which makes them over a tenth of it.  The tail percentile (p90
   to p99 for the sample counts a run reaches) then falls inside the heavy
   class instead of on the edge between two apps, where one cycle more or
   less would move it.  The cycle sizes (15, 23 and 30 requests) likewise
   keep the median inside one class or a run of overlapping ones, away
   from classes whose latency depends on the backend. *)
let with_heavy n heavy l = l @ List.concat_map (fun x -> List.init (n - 1) (fun _ -> x)) heavy

(* Modes — and on warm-sweep the Sim/Replay backend — rotate from a seeded
   phase per request slot, so over a run every input meets every mode (and
   backend) about equally often; the seed sets the phases, the generated
   apps and the order within each cycle. *)
let cycle w =
  let rng = w.mix and k = w.cycles in
  w.cycles <- k + 1;
  let slot = ref (-1) in
  let pick modes =
    incr slot;
    modes.((w.phases.(!slot) + k) mod Array.length modes)
  in
  (* The backend of the slot just picked flips once per mode rotation. *)
  let sim_backend modes = (w.phases.(!slot) + (k / Array.length modes)) mod 2 = 0 in
  let inputs = Array.to_list w.inputs in
  let reqs =
    match w.workload with
    | Cold_launch ->
      List.map
        (fun i -> Cold (i, pick fig9))
        (with_heavy 2 [ suite_input "GAUSSIAN" ] inputs)
    | Warm_sweep ->
      let coruns = Array.to_list w.coruns in
      List.map
        (fun i ->
          let mode = pick warm_modes in
          if sim_backend warm_modes then Warm_sim (i, mode) else Warm_replay (i, mode))
        inputs
      @ List.map
          (fun c -> Warm_corun (c, pick warm_modes))
          (with_heavy 3 [ List.hd coruns ] coruns)
    | Disk_roundtrip ->
      let unseen =
        List.init unseen_per_cycle (fun _ ->
            let s = banded_spec w.unseen_rng 0 in
            w.unseen <- w.unseen + 1;
            let s = { s with Genapp.g_name = Printf.sprintf "new%05d" w.unseen } in
            Unseen_run (input_of_spec s, pick fig9))
      in
      List.map (fun i -> Disk_run (i, pick fig9)) inputs
      @ List.map
          (fun i -> Round_trip (i, pick fig9))
          (with_heavy 2 [ suite_input "GAUSSIAN"; suite_input "NW" ] suite_inputs)
      @ unseen
  in
  shuffle rng reqs

(* --- executing one request ------------------------------------------------ *)

type result = {
  stats : Stats.t array;
  prep_s : float;  (* host seconds in direct Prep.prepare calls *)
  launches : int;  (* kernel launches those calls prepared *)
  cache : Cache.t option;  (* a cache the request created *)
  store : Store.t option;  (* the store handle the request opened *)
}

let single ?cache ?store ?(prep_s = 0.0) ?(launches = 0) stats =
  { stats = [| stats |]; prep_s; launches; cache; store }

let exec tr w req =
  match req with
  | Cold (i, mode) ->
    let app = Tracer.span tr "build" i.build in
    let cache = Cache.create () in
    let prep, dt = timed_prepare tr None ~reorder:(Mode.reorders mode) ~cache app in
    let stats = Tracer.span tr "sim" (fun () -> Sim.run cfg mode prep) in
    single ~cache ~prep_s:dt ~launches:(Array.length prep.Prep.p_launches) stats
  | Warm_sim (i, mode) ->
    let prep = Hashtbl.find w.preps (i.name, Mode.reorders mode) in
    single (Tracer.span tr "sim" (fun () -> Sim.run cfg mode prep))
  | Warm_replay (i, mode) ->
    let graph = Hashtbl.find w.graphs i.name in
    single (Tracer.span tr "replay" (fun () -> Replay.run cfg mode graph))
  | Warm_corun (c, mode) ->
    let preps = Array.map (fun i -> Hashtbl.find w.preps (i.name, Mode.reorders mode)) c.c_apps in
    let r =
      Tracer.span tr "multi" (fun () ->
          Multi.run ~submission:c.c_submission ~spatial:c.c_spatial cfg mode preps)
    in
    { stats = r.Multi.mr_stats; prep_s = 0.0; launches = 0; cache = None; store = None }
  | Disk_run (i, mode) | Unseen_run (i, mode) ->
    let app = Tracer.span tr "build" i.build in
    let store = open_store w in
    let cache = Cache.create ~store () in
    let prep, dt = timed_prepare tr None ~reorder:(Mode.reorders mode) ~cache app in
    let stats = Tracer.span tr "sim" (fun () -> Sim.run cfg mode prep) in
    (* A never-seen app's preparation is mostly store writes, whose cost
       varies with the file system; analysis_us_per_launch counts the
       disk-warm preparations only.  The writes show in the latencies. *)
    let prep_s, launches =
      match req with
      | Unseen_run _ -> (0.0, 0)
      | _ -> (dt, Array.length prep.Prep.p_launches)
    in
    single ~cache ~store ~prep_s ~launches stats
  | Round_trip (i, mode) ->
    let app = Tracer.span tr "build" i.build in
    let store = open_store w in
    let cache = Cache.create ~store () in
    let graph =
      Tracer.span_prof tr "graph.capture" (fun prof -> Graph.capture ~cache ?prof cfg app)
    in
    let file = graph_file w i in
    let graph_error e = failwith (Format.asprintf "%s: %a" file Graph.pp_error e) in
    (match Tracer.span_result tr "graph.save" (fun () -> Graph.save file graph) with
    | Ok () -> ()
    | Error msg -> failwith ("graph.save: " ^ msg));
    let loaded =
      match Tracer.span_result tr "graph.load" (fun () -> Graph.load file) with
      | Ok g -> g
      | Error e -> graph_error e
    in
    (match Tracer.span_result tr "graph.validate" (fun () -> Graph.validate cfg app loaded) with
    | Ok () -> ()
    | Error e -> graph_error e);
    single ~cache ~store (Tracer.span tr "replay" (fun () -> Replay.run cfg mode loaded))
