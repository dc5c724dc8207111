(* Correctness check, run after the timed window.

   Requests are grouped by what they simulated: one app, or one co-run
   pair, under one mode.  Every result of a group must carry the same
   signature, and the group must agree with its reference:

   - a suite app under a Fig. 9 mode must reproduce the simulated cycles
     committed in BENCH_0.json;
   - a generated app or co-run pair must pass the naive reference
     (Diff.check / Diff.check_corun), once per distinct input;
   - a replayed, reloaded, disk-warm or cached result must equal Sim.run
     on a fresh preparation of the same input; a suite co-run pair, which
     is partitioned, must equal each app's solo Sim.run on its slice (the
     partition-isolation theorem).

   A signature digests every field Diff.diff_stats compares (totals,
   concurrency, memory requests and every per-TB record, floats by bit
   pattern), so equal signatures mean results Diff.diff_stats accepts. *)

open Blockmaestro
module W = Work

type outcome = {
  o_req : W.req;
  o_sig : string;
  o_cycles : float;  (* single-app results; nan for co-runs *)
  o_error : string option;
}

let mix h x = (h lxor x) * 0x100000001b3

let mixf h f = mix h (Int64.to_int (Int64.bits_of_float f))

let signature (s : Stats.t) =
  let h = ref 0x0bf29ce484222325 in
  List.iter
    (fun f -> h := mixf !h f)
    [ s.Stats.total_us; s.busy_us; s.avg_concurrency; s.base_mem_requests; s.dep_mem_requests ];
  Array.iter
    (fun (r : Stats.tb_record) ->
      h := mix (mix !h r.Stats.r_kernel) r.r_tb;
      h := mixf (mixf (mixf !h r.r_dep_ready) r.r_start) r.r_finish)
    s.records;
  Printf.sprintf "%d/%x" (Array.length s.records) (!h land 0xffffffffffff)

let signatures stats = String.concat ";" (Array.to_list (Array.map signature stats))

let cycles = Benchrun.cycles_of W.cfg

(* BENCH_0.json cycles print with 12 significant digits; compare at that
   precision. *)
let same_cycles a b = String.equal (Printf.sprintf "%.12g" a) (Printf.sprintf "%.12g" b)

type reference = (string * string, float) Hashtbl.t  (* (app, mode name) -> cycles *)

let load_reference file : (reference, string) result =
  match Benchfile.load file with
  | Error msg -> Error msg
  | Ok bf ->
    let t = Hashtbl.create 128 in
    List.iter
      (fun (a : Benchfile.app_result) ->
        List.iter
          (fun (m : Benchfile.mode_result) ->
            Hashtbl.replace t (a.Benchfile.ar_app, m.Benchfile.mr_mode) m.Benchfile.mr_cycles)
          a.Benchfile.ar_modes)
      bf.Benchfile.bf_apps;
    Ok t

type subject = Single of W.input | Pair of W.corun

let subject_of (r : W.req) =
  match r with
  | W.Cold (i, m)
  | W.Warm_sim (i, m)
  | W.Warm_replay (i, m)
  | W.Disk_run (i, m)
  | W.Unseen_run (i, m)
  | W.Round_trip (i, m) ->
    (Single i, m)
  | W.Warm_corun (c, m) -> (Pair c, m)

let key_of r =
  let s, m = subject_of r in
  (match s with Single i -> i.W.name | Pair c -> c.W.c_name) ^ "@" ^ Mode.name m

let is_cold = function W.Cold _ -> true | _ -> false

(* Returns the number of failed requests and one line per problem.
   [perturb] adds one cycle to the BENCH_0 reference of the first suite
   result checked against it: the self-test uses it to prove a wrong
   reference cycle fails requests rather than passing silently. *)
let check ?tr ~(reference : reference) ~perturb (outcomes : outcome list) =
  let groups = Hashtbl.create 128 and keys = ref [] in
  List.iter
    (fun o ->
      let k = key_of o.o_req in
      match Hashtbl.find_opt groups k with
      | Some l -> Hashtbl.replace groups k (o :: l)
      | None ->
        keys := k :: !keys;
        Hashtbl.replace groups k [ o ])
    outcomes;
  (* Groups are checked in key order, so all modes of one subject are
     consecutive and its fresh preparations are dropped before the next
     subject's: the check holds one subject's preparations at a time. *)
  let fresh_preps = Hashtbl.create 8 and fresh_subject = ref "" in
  let fresh_prep subject (i : W.input) reorder =
    if not (String.equal subject !fresh_subject) then begin
      Hashtbl.reset fresh_preps;
      fresh_subject := subject
    end;
    match Hashtbl.find_opt fresh_preps (i.W.name, reorder) with
    | Some p -> p
    | None ->
      let p = Prep.prepare ~reorder W.cfg (i.W.build ()) in
      Hashtbl.replace fresh_preps (i.W.name, reorder) p;
      p
  in
  let perturbed = ref (not perturb) in
  let problems = ref [] and failed = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun k ->
      let group = List.rev (Hashtbl.find groups k) in
      let subject, mode = subject_of (List.hd group).o_req in
      (* Results are compared with the first one that did not fail. *)
      let first =
        Option.value (List.find_opt (fun o -> o.o_error = None) group) ~default:(List.hd group)
      in
      let name = match subject with Single i -> i.W.name | Pair c -> c.W.c_name in
      (* [Error msg] fails every request of the group. *)
      let anchor () =
        match subject with
        | Single i ->
          let expected =
            if i.W.generated then None
            else Hashtbl.find_opt reference (i.W.name, Mode.name mode)
          in
          let bench0 =
            match expected with
            | None -> Ok ()
            | Some c ->
              let c =
                if !perturbed then c
                else begin
                  perturbed := true;
                  c +. 1.0
                end
              in
              if List.for_all (fun o -> o.o_error <> None || same_cycles o.o_cycles c) group then Ok ()
              else
                Error
                  (Printf.sprintf "cycles %.12g differ from BENCH_0.json %.12g" first.o_cycles c)
          in
          let oracle =
            if not i.W.generated then Ok ()
            else
              match Diff.check ~cfg:W.cfg ~modes:[ mode ] (i.W.build ()) with
              | Ok () -> Ok ()
              | Error ms ->
                Error
                  (String.concat "; "
                     (List.map (fun m -> Format.asprintf "%a" Diff.pp_mismatch m) ms))
          in
          let fresh () =
            (* Skipped only where every result already is a cold Sim.run
               and BENCH_0.json anchors it. *)
            if expected <> None && List.for_all (fun o -> is_cold o.o_req) group then None
            else
              Some (signature (Sim.run W.cfg mode (fresh_prep name i (Mode.reorders mode))))
          in
          Result.bind bench0 (fun () -> Result.map (fun () -> fresh ()) oracle)
        | Pair c ->
          let oracle =
            if not c.W.c_generated then Ok ()
            else
              match
                Diff.check_corun ~cfg:W.cfg ~modes:[ mode ] ~submissions:[ c.W.c_submission ]
                  ~spatials:[ c.W.c_spatial ]
                  (Array.map (fun (i : W.input) -> i.W.build ()) c.W.c_apps)
              with
              | Ok () -> Ok ()
              | Error ms ->
                Error
                  (String.concat "; "
                     (List.map (fun m -> Format.asprintf "%a" Diff.pp_corun_mismatch m) ms))
          in
          let preps = Array.map (fun i -> fresh_prep name i (Mode.reorders mode)) c.W.c_apps in
          let fresh () =
            match c.W.c_spatial with
            | Multi.Partitioned slices ->
              Array.mapi (fun a p -> Sim.run (Config.with_sms W.cfg slices.(a)) mode p) preps
            | Multi.Shared ->
              (Multi.run ~submission:c.W.c_submission ~spatial:c.W.c_spatial W.cfg mode preps)
                .Multi.mr_stats
          in
          Result.map (fun () -> Some (signatures (fresh ()))) oracle
      in
      let verdict =
        match Tracer.span tr "check" anchor with
        | v -> v
        | exception e -> Error ("reference raised " ^ Printexc.to_string e)
      in
      List.iter
        (fun o ->
          let bad =
            match (o.o_error, verdict) with
            | Some e, _ -> Some e
            | None, Error e -> Some e
            | None, Ok (Some s) when not (String.equal s o.o_sig) ->
              Some (Printf.sprintf "result %s differs from the reference %s" o.o_sig s)
            | None, Ok _ when not (String.equal o.o_sig first.o_sig) ->
              Some (Printf.sprintf "result %s differs from an earlier run %s" o.o_sig first.o_sig)
            | None, Ok _ -> None
          in
          match bad with
          | None -> ()
          | Some why ->
            incr failed;
            problem "%s: %s" k why)
        group)
    (List.sort String.compare !keys);
  (!failed, List.rev !problems)
