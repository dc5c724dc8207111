open Bm_ptx.Types

type t = string

(* Register renaming dominates fingerprinting, so its tables are
   string-specialized and pre-sized to the body. *)
module H = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

(* Renaming environment: registers and labels get fresh canonical names in
   first-occurrence order.  Parameter names are NOT renamed — they are
   semantic (footprint args bind by parameter name), so two kernels that
   differ only in a param spelling must not collide. *)
type env = {
  regs : string H.t;
  labels : string H.t;
  mutable next_reg : int;
  mutable next_label : int;
}

let reg_name env r =
  match H.find_opt env.regs r with
  | Some c -> c
  | None ->
    let c = "%v" ^ string_of_int env.next_reg in
    env.next_reg <- env.next_reg + 1;
    H.add env.regs r c;
    c

let label_name env l =
  match H.find_opt env.labels l with
  | Some c -> c
  | None ->
    let c = "L" ^ string_of_int env.next_label in
    env.next_label <- env.next_label + 1;
    H.add env.labels l c;
    c

let add_operand env buf = function
  | Reg r -> Buffer.add_string buf (reg_name env r)
  | Imm i ->
    Buffer.add_char buf '#';
    Buffer.add_string buf (string_of_int i)
  | Fimm f ->
    Buffer.add_char buf 'F';
    (* hex form: exact round-trip, distinguishes 0.0 from -0.0 *)
    Buffer.add_string buf (Printf.sprintf "%h" f)
  | Sreg s -> Buffer.add_string buf (special_name s)
  | Sym p ->
    Buffer.add_char buf '$';
    Buffer.add_string buf p

let add_op env buf = function
  | Mov -> Buffer.add_string buf "mov"
  | Add -> Buffer.add_string buf "add"
  | Sub -> Buffer.add_string buf "sub"
  | Mul_lo -> Buffer.add_string buf "mul.lo"
  | Mul_wide -> Buffer.add_string buf "mul.wide"
  | Mad_lo -> Buffer.add_string buf "mad.lo"
  | Mad_wide -> Buffer.add_string buf "mad.wide"
  | Div -> Buffer.add_string buf "div"
  | Rem -> Buffer.add_string buf "rem"
  | Shl -> Buffer.add_string buf "shl"
  | Shr -> Buffer.add_string buf "shr"
  | And_ -> Buffer.add_string buf "and"
  | Or_ -> Buffer.add_string buf "or"
  | Xor -> Buffer.add_string buf "xor"
  | Not_ -> Buffer.add_string buf "not"
  | Neg -> Buffer.add_string buf "neg"
  | Min -> Buffer.add_string buf "min"
  | Max -> Buffer.add_string buf "max"
  | Cvt ty ->
    Buffer.add_string buf "cvt.";
    Buffer.add_string buf (ty_name ty)
  | Cvta sp ->
    Buffer.add_string buf "cvta.";
    Buffer.add_string buf (space_name sp)
  | Setp c ->
    Buffer.add_string buf "setp.";
    Buffer.add_string buf (cmp_name c)
  | Selp -> Buffer.add_string buf "selp"
  | Ld sp ->
    Buffer.add_string buf "ld.";
    Buffer.add_string buf (space_name sp)
  | St sp ->
    Buffer.add_string buf "st.";
    Buffer.add_string buf (space_name sp)
  | Atom (sp, a) ->
    Buffer.add_string buf "atom.";
    Buffer.add_string buf (space_name sp);
    Buffer.add_char buf '.';
    Buffer.add_string buf a
  | Bra l ->
    Buffer.add_string buf "bra ";
    Buffer.add_string buf (label_name env l)
  | Bar -> Buffer.add_string buf "bar"
  | Ret -> Buffer.add_string buf "ret"
  | Fma -> Buffer.add_string buf "fma"
  | Funary f ->
    Buffer.add_string buf "fun.";
    Buffer.add_string buf f

let add_instr env buf = function
  | Label l ->
    Buffer.add_string buf (label_name env l);
    Buffer.add_char buf ':'
  | I { op; ty; dst; srcs; offset; guard } ->
    (match guard with
    | None -> ()
    | Some (neg, p) ->
      Buffer.add_char buf '@';
      if neg then Buffer.add_char buf '!';
      Buffer.add_string buf (reg_name env p);
      Buffer.add_char buf ' ');
    add_op env buf op;
    Buffer.add_char buf '.';
    Buffer.add_string buf (ty_name ty);
    (match dst with
    | None -> ()
    | Some d ->
      Buffer.add_char buf ' ';
      add_operand env buf d);
    List.iter
      (fun s ->
        Buffer.add_char buf ',';
        add_operand env buf s)
      srcs;
    if offset <> 0 then begin
      Buffer.add_char buf '+';
      Buffer.add_string buf (string_of_int offset)
    end

let of_kernel (k : kernel) : t =
  let env =
    { regs = H.create (Array.length k.kbody); labels = H.create 8; next_reg = 0; next_label = 0 }
  in
  let buf = Buffer.create (32 * Array.length k.kbody) in
  List.iter
    (fun p ->
      Buffer.add_string buf (if p.pptr then "ptr " else "val ");
      Buffer.add_string buf (ty_name p.pty);
      Buffer.add_char buf ' ';
      Buffer.add_string buf p.pname;
      Buffer.add_char buf ';')
    k.kparams;
  Buffer.add_char buf '\n';
  Array.iter
    (fun i ->
      add_instr env buf i;
      Buffer.add_char buf '\n')
    k.kbody;
  Buffer.contents buf

let equal = String.equal
let hash = Hashtbl.hash
let to_string t = t
