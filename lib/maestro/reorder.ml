module Command = Bm_gpu.Command

type rw = {
  reads : int list;
  writes : int list;
}

let inter a b = List.exists (fun x -> List.mem x b) a

let conflicts a b =
  inter a.writes b.reads || inter a.reads b.writes || inter a.writes b.writes

(* One left-to-right scan with per-buffer last-writer / readers-since-write
   indices instead of the quadratic all-pairs [conflicts] sweep (GAUSSIAN
   alone is ~1.5k commands, >1M pair checks).  The edge set is smaller than
   the all-pairs one — a WAW chain w1→w2→w3 omits w1→w3 — but has the same
   transitive closure, and scheduling readiness ("every predecessor
   emitted") only depends on the closure, so [reorder] output is
   unchanged. *)
let dependencies rws =
  let n = Array.length rws in
  let last_writer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let readers : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let preds = Array.make n [] in
  for j = 0 to n - 1 do
    let add i = preds.(j) <- i :: preds.(j) in
    let writer b = match Hashtbl.find_opt last_writer b with Some i -> add i | None -> () in
    List.iter writer rws.(j).reads;
    List.iter
      (fun b ->
        writer b;
        match Hashtbl.find_opt readers b with Some l -> List.iter add !l | None -> ())
      rws.(j).writes;
    List.iter
      (fun b ->
        Hashtbl.replace last_writer b j;
        Hashtbl.replace readers b (ref []))
      rws.(j).writes;
    List.iter
      (fun b ->
        match Hashtbl.find_opt readers b with
        | Some l -> l := j :: !l
        | None -> Hashtbl.replace readers b (ref [ j ]))
      rws.(j).reads
  done;
  let edges = ref [] in
  for j = n - 1 downto 0 do
    List.iter (fun i -> edges := (i, j) :: !edges) (List.sort_uniq compare preds.(j))
  done;
  !edges

module Ready = Set.Make (Int)

(* The schedule: drain every ready non-kernel command in index order,
   then emit the lowest-index ready kernel, and repeat.  Every dependency
   points forward (i < j), so a command made ready by an emission lies
   ahead of it: one pass in index order drains everything ready, and
   ordered sets give that order without rescanning the command list for
   every kernel. *)
let reorder commands =
  let keep =
    Array.to_list commands
    |> List.filter (fun (c, _) -> match c with Command.Device_synchronize -> false | _ -> true)
    |> Array.of_list
  in
  let n = Array.length keep in
  let rws = Array.map snd keep in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  List.iter
    (fun (i, j) ->
      indeg.(j) <- indeg.(j) + 1;
      succs.(i) <- j :: succs.(i))
    (dependencies rws);
  let is_kernel i = match fst keep.(i) with Command.Kernel_launch _ -> true | _ -> false in
  let kernels = ref Ready.empty and others = ref Ready.empty in
  let ready j =
    if is_kernel j then kernels := Ready.add j !kernels else others := Ready.add j !others
  in
  let out = ref [] in
  let emit i =
    out := fst keep.(i) :: !out;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready j)
      succs.(i)
  in
  Array.iteri (fun i d -> if d = 0 then ready i) indeg;
  let rec schedule () =
    match Ready.min_elt_opt !others with
    | Some i ->
      others := Ready.remove i !others;
      emit i;
      schedule ()
    | None -> (
      match Ready.min_elt_opt !kernels with
      | Some k ->
        kernels := Ready.remove k !kernels;
        emit k;
        schedule ()
      | None ->
        (* Nothing ready with commands left would mean a dependency
           cycle, which is impossible for edges i < j. *)
        assert (List.length !out = n))
  in
  schedule ();
  List.rev !out
