(* Symbolic base+offset address analysis over MIR operands.

   The value lattice tracks, per register location, what address (or
   integer) the register holds:

     Vtop                    unknown (absent from the environment)
     Vint n                  the integer n
     Vfp                     the frame pointer
     Vslotoff (s, a)         the unresolved frame offset of slot s, plus a
     Vaddr (b, Some o)       offset o within object b
     Vaddr (b, None)         somewhere within object b

   Objects are frame slots (Bslot), link-time symbols (Bsym), the frame
   area reached by raw frame-pointer arithmetic (Bfrm), and opaque values
   named by their definition site (Bopq) — a load result or any value the
   domain cannot evaluate is at least a *fixed* value per execution of its
   defining instruction, so two accesses through the same opaque base at
   disjoint offsets cannot collide.

   Address arithmetic relies on the C object model the front end
   guarantees: pointer arithmetic on a well-defined program stays within
   the pointed-to object, so [address + unknown] keeps the base and drops
   the offset rather than going to top. Distinct named objects (two slots,
   two symbols, a slot and a symbol) are disjoint; only Bfrm-vs-Bslot must
   stay conservative, since slot offsets within the frame are not laid out
   until after scheduling. *)

type base =
  | Bslot of int
  | Bsym of string
  | Bfrm
  | Bopq of int * int * int (* defining inst id, operand position, generation *)

type value =
  | Vtop
  | Vint of int
  | Vfp
  | Vslotoff of int * int
  | Vaddr of base * int option

module Env = Map.Make (struct
  type t = Locs.t

  let compare = compare
end)

type env = value Env.t

let empty_env : env = Env.empty

(* ------------------------------------------------------------------ *)
(* Value arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let vadd a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (x + y)
  | Vfp, Vslotoff (s, a) | Vslotoff (s, a), Vfp -> Vaddr (Bslot s, Some a)
  | Vfp, Vint k | Vint k, Vfp -> Vaddr (Bfrm, Some k)
  | Vslotoff (s, a), Vint k | Vint k, Vslotoff (s, a) -> Vslotoff (s, a + k)
  | Vaddr (b, Some o), Vint k | Vint k, Vaddr (b, Some o) ->
      Vaddr (b, Some (o + k))
  (* pointer plus an unknown integer stays within the object *)
  | Vaddr (b, _), (Vtop | Vint _ | Vaddr _)
  | (Vtop | Vint _), Vaddr (b, _) ->
      Vaddr (b, None)
  | _ -> Vtop

let vsub a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (x - y)
  | Vfp, Vint k -> Vaddr (Bfrm, Some (-k))
  | Vslotoff (s, a), Vint k -> Vslotoff (s, a - k)
  | Vaddr (b, Some o), Vint k -> Vaddr (b, Some (o - k))
  | Vaddr (b1, Some x), Vaddr (b2, Some y) when b1 = b2 -> Vint (x - y)
  | Vaddr (b, _), (Vtop | Vint _) -> Vaddr (b, None)
  | _ -> Vtop

let vjoin a b =
  if a = b then a
  else
    match (a, b) with
    | Vaddr (b1, _), Vaddr (b2, _) when b1 = b2 -> Vaddr (b1, None)
    | _ -> Vtop

(* ------------------------------------------------------------------ *)
(* Evaluating semantics expressions                                    *)
(* ------------------------------------------------------------------ *)

let lookup env l = match Env.find_opt l env with Some v -> v | None -> Vtop

let eval_operand env (o : Mir.operand) =
  match o with
  | Mir.Oimm v -> Vint v
  | Mir.Oslot (s, a) -> Vslotoff (s, a)
  | Mir.Osym (s, a) -> Vaddr (Bsym s, Some a)
  | Mir.Opreg p -> lookup env (Locs.Lp p.Mir.p_id)
  | Mir.Ophys r -> lookup env (Locs.Lh r)
  | Mir.Opart _ | Mir.Olab _ -> Vtop

let rec eval env (i : Mir.inst) (e : Ast.expr) =
  match e with
  | Ast.Eint n -> Vint n
  | Ast.Eopnd k ->
      if k >= 1 && k <= Array.length i.Mir.n_ops then
        eval_operand env i.Mir.n_ops.(k - 1)
      else Vtop
  | Ast.Ebinop (Ast.Add, a, b) -> vadd (eval env i a) (eval env i b)
  | Ast.Ebinop (Ast.Sub, a, b) -> vsub (eval env i a) (eval env i b)
  | Ast.Ebinop (Ast.Mul, a, b) -> (
      match (eval env i a, eval env i b) with
      | Vint x, Vint y -> Vint (x * y)
      | _ -> Vtop)
  | Ast.Ebinop (Ast.Shl, a, b) -> (
      match (eval env i a, eval env i b) with
      | Vint x, Vint y when y >= 0 && y < 31 -> Vint (x lsl y)
      | _ -> Vtop)
  (* int-sized conversions preserve the (32-bit) value *)
  | Ast.Ecvt ((Ast.Int | Ast.Long), a) -> eval env i a
  | _ -> Vtop

let rec expr_loads = function
  | Ast.Emem _ -> true
  | Ast.Eint _ | Ast.Eflt _ | Ast.Eopnd _ | Ast.Ename _ -> false
  | Ast.Ebinop (_, a, b) | Ast.Erel (_, a, b) -> expr_loads a || expr_loads b
  | Ast.Eunop (_, a) | Ast.Ecvt (_, a) -> expr_loads a
  | Ast.Ebuiltin (_, args) -> List.exists expr_loads args

(* ------------------------------------------------------------------ *)
(* Transfer                                                            *)
(* ------------------------------------------------------------------ *)

(* One instruction's effect on the environment. Opaque values are named
   by their definition site; [gen] distinguishes naming generations — the
   dataflow transfer always uses generation 0 (so re-analysis of a block
   converges), while the per-block oracle walk uses generation 1 so the
   value entering the block from a previous loop iteration can never be
   confused with the one this block defines at the same site. *)
let step ?(gen = 0) model env (i : Mir.inst) =
  let op = i.Mir.n_op in
  (* the value each written register operand receives, in the pre-state.
     Only input-independent fallbacks may name an opaque value: a
     site-named result for an input-dependent expression would break the
     transfer's monotonicity. *)
  let bind_of pos =
    let sem =
      List.find_map
        (function
          | Ast.Sassign (Ast.Lopnd k, e) when k = pos + 1 -> Some e
          | _ -> None)
        op.Model.i_sem
    in
    match sem with
    | Some e when not (expr_loads e) -> (
        match eval env i e with Vtop -> None | v -> Some v)
    | _ ->
        (* a load result, or a write with no evaluable semantics: a fixed
           opaque value per execution of this site *)
        Some (Vaddr (Bopq (i.Mir.n_id, pos, gen), Some 0))
  in
  let binds =
    List.filter_map
      (fun pos ->
        match i.Mir.n_ops.(pos) with
        | Mir.Opreg p ->
            Option.map (fun v -> (Locs.Lp p.Mir.p_id, v)) (bind_of pos)
        | Mir.Ophys r -> Option.map (fun v -> (Locs.Lh r, v)) (bind_of pos)
        | _ -> None)
      op.Model.i_writes
  in
  let writes = Locs.writes model i in
  (* one traversal kills both the clobbered bindings and — since
     re-executing a definition site creates a fresh opaque value — any
     binding still naming this site's previous one; Env.filter returns
     the map unchanged (physically) when nothing dies *)
  let env =
    Env.filter
      (fun l v ->
        (writes = []
        || not (List.exists (fun w -> Locs.overlap model w l) writes))
        &&
        match v with
        | Vaddr (Bopq (id, _, _), _) -> id <> i.Mir.n_id
        | _ -> true)
      env
  in
  List.fold_left (fun env (l, v) -> Env.add l v env) env binds

(* ------------------------------------------------------------------ *)
(* Memory accesses                                                     *)
(* ------------------------------------------------------------------ *)

type access = { a_write : bool; a_val : value; a_size : int }

let accesses env (i : Mir.inst) =
  let size =
    match i.Mir.n_op.Model.i_type with
    | Some t -> Ast.vtype_size t
    | None -> 8
  in
  let acc = ref [] in
  let add write a = acc := { a_write = write; a_val = eval env i a; a_size = size } :: !acc in
  let rec expr = function
    | Ast.Emem (_, a) ->
        add false a;
        expr a
    | Ast.Ebinop (_, a, b) | Ast.Erel (_, a, b) ->
        expr a;
        expr b
    | Ast.Eunop (_, a) | Ast.Ecvt (_, a) -> expr a
    | Ast.Ebuiltin (_, args) -> List.iter expr args
    | Ast.Eint _ | Ast.Eflt _ | Ast.Eopnd _ | Ast.Ename _ -> ()
  in
  let stmt = function
    | Ast.Sassign (Ast.Lmem (_, a), e) ->
        add true a;
        expr a;
        expr e
    | Ast.Sassign (_, e) -> expr e
    | Ast.Sifgoto (e, _) -> expr e
    | Ast.Sgoto _ | Ast.Scall _ | Ast.Sret | Ast.Snop -> ()
  in
  List.iter stmt i.Mir.n_op.Model.i_sem;
  List.rev !acc

let ranges_overlap o1 s1 o2 s2 = o1 < o2 + s2 && o2 < o1 + s1

let may_overlap (a : access) (b : access) =
  match (a.a_val, b.a_val) with
  | Vint x, Vint y -> ranges_overlap x a.a_size y b.a_size
  | Vaddr (b1, o1), Vaddr (b2, o2) ->
      if b1 = b2 then
        match (o1, o2) with
        | Some x, Some y -> ranges_overlap x a.a_size y b.a_size
        | _ -> true
      else (
        match (b1, b2) with
        | Bopq _, _ | _, Bopq _ -> true (* an opaque pointer may point anywhere *)
        | Bfrm, Bslot _ | Bslot _, Bfrm ->
            true (* slot offsets within the frame are not laid out yet *)
        | (Bslot _ | Bsym _ | Bfrm), (Bslot _ | Bsym _ | Bfrm) ->
            false (* distinct named objects are disjoint *))
  | _ -> true

(* ------------------------------------------------------------------ *)
(* The dataflow client                                                 *)
(* ------------------------------------------------------------------ *)

module Dom = struct
  type fact = env

  let direction = Dataflow.Forward

  let init (fn : Mir.func) (b : Mir.block) =
    match fn.Mir.f_blocks with
    | entry :: _ when entry.Mir.b_label = b.Mir.b_label ->
        Some (Env.singleton (Locs.Lh fn.Mir.f_model.Model.cwvm.Model.v_fp) Vfp)
    | _ -> None

  let equal = Env.equal (fun (a : value) b -> a = b)

  let join a b =
    Env.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y -> (
            match vjoin x y with Vtop -> None | v -> Some v)
        | _ -> None)
      a b

  let transfer (fn : Mir.func) (b : Mir.block) env =
    List.fold_left (fun env i -> step fn.Mir.f_model env i) env b.Mir.b_insts

  let nfacts = Env.cardinal
end

module S = Dataflow.Solve (Dom)

type result = S.result

let solve = S.solve

let env_in = S.flow_in
