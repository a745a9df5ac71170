(* Global liveness over MIR: one backward dataflow client shared by the
   register allocator and Mircheck's A001/A002 warnings. *)

(* Keys [0, nphys) are physical registers: register [idx] of class [c]
   is [base.(c) + idx]. Pseudo [p]'s half [h] is [nphys + 2p + h]. *)
type keys = { model : Model.t; base : int array; nphys : int; cap : int }

let keyspace (fn : Mir.func) =
  let model = fn.Mir.f_model in
  let n = ref 0 in
  let base =
    Array.map
      (fun (c : Model.rclass) ->
        let b = !n - c.Model.c_lo in
        n := !n + max 0 (c.Model.c_hi - c.Model.c_lo + 1);
        b)
      model.Model.classes
  in
  { model; base; nphys = !n; cap = !n + (2 * fn.Mir.f_next_preg) }

let half ks f (p : Mir.preg) h =
  let k = ks.nphys + (2 * p.Mir.p_id) + h in
  if p.Mir.p_id >= 0 && k < ks.cap then f k

let phys ks f (r : Model.reg) =
  if Locs.reg_valid ks.model r then f (ks.base.(r.Model.cls) + r.Model.idx)

(* a pseudo both halves, one part of it its half, a physical register
   (part or whole) its own key *)
let operand_keys ks f (o : Mir.operand) =
  match o with
  | Mir.Opart (Mir.Opreg p, ((0 | 1) as h)) -> half ks f p h
  | _ -> (
      match Mir.operand_reg o with
      | Some (`Preg p) ->
          half ks f p 0;
          half ks f p 1
      | Some (`Phys r) -> phys ks f r
      | None -> ())

(* the operands at [positions], skipping any the instruction lacks *)
let operands f (i : Mir.inst) positions =
  let n = Array.length i.Mir.n_ops in
  List.iter (fun j -> if j >= 0 && j < n then f i.Mir.n_ops.(j)) positions

let defs ks f (i : Mir.inst) =
  operands (operand_keys ks f) i i.Mir.n_op.Model.i_writes;
  List.iter (phys ks f) i.Mir.n_xdef

let uses ks f (i : Mir.inst) =
  operands (operand_keys ks f) i i.Mir.n_op.Model.i_reads;
  List.iter (phys ks f) i.Mir.n_xuse

let step_keys ks (i : Mir.inst) live =
  defs ks (Bitset.unset live) i;
  uses ks (Bitset.set live) i

type t = {
  ks : keys;
  flow_in : string -> Bitset.t option;
  flow_out : string -> Bitset.t option;
}

let compute (fn : Mir.func) =
  let ks = keyspace fn in
  let empty = Bitset.create ks.cap in
  let seeded =
    match List.rev fn.Mir.f_blocks with
    | last :: _ when not fn.Mir.f_has_calls ->
        let s = Bitset.create ks.cap in
        phys ks (Bitset.set s) ks.model.Model.cwvm.Model.v_retaddr;
        Some (last, s)
    | _ -> None
  in
  let module S = Dataflow.Solve (struct
    type fact = Bitset.t

    let direction = Dataflow.Backward

    (* the empty set is the least element: every block starts from it *)
    let init _ b =
      match seeded with
      | Some (last, s) when last == b -> Some s
      | _ -> Some empty

    let equal = Bitset.equal

    let join a b =
      let u = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      u

    let transfer _ (b : Mir.block) out =
      let live = Bitset.copy out in
      List.fold_right (fun i () -> step_keys ks i live) b.Mir.b_insts ();
      live

    let nfacts = Bitset.cardinal
  end) in
  let r = S.solve fn in
  { ks; flow_in = S.flow_in r; flow_out = S.flow_out r }

let copy_or_empty t = function
  | Some s -> Bitset.copy s
  | None -> Bitset.create t.ks.cap

let live_in t label = copy_or_empty t (t.flow_out label)

let live_out t label = copy_or_empty t (t.flow_in label)

let step t = step_keys t.ks

let iter_defs t f i = defs t.ks f i

let iter_operand t f o = operand_keys t.ks f o

let pseudo t k = if k < t.ks.nphys then -1 else (k - t.ks.nphys) / 2

let reg t k =
  let classes = t.ks.model.Model.classes in
  (* the last class whose first key is at or below [k] *)
  let c = ref 0 in
  Array.iteri
    (fun i (cl : Model.rclass) ->
      if t.ks.base.(i) + cl.Model.c_lo <= k then c := i)
    classes;
  { Model.cls = !c; idx = k - t.ks.base.(!c) }

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type uninit = { u_preg : Mir.preg; u_block : string; u_inst : Mir.inst }

let uninitialized t (fn : Mir.func) =
  match fn.Mir.f_blocks with
  | [] -> []
  | entry :: _ ->
      let at_entry = live_in t entry.Mir.b_label in
      for k = 0 to t.ks.nphys - 1 do
        Bitset.unset at_entry k
      done;
      (* a representative use per pseudo: the first upward-exposed read
         of a half live into the entry, in layout order *)
      let found : (int, uninit) Hashtbl.t = Hashtbl.create 8 in
      if not (Bitset.is_empty at_entry) then
        List.iter
          (fun (b : Mir.block) ->
            let live = live_in t b.Mir.b_label in
            Bitset.inter_into ~dst:live at_entry;
            List.iter
              (fun (i : Mir.inst) ->
                operands
                  (fun o ->
                    match Mir.operand_reg o with
                    | Some (`Preg p) when not (Hashtbl.mem found p.Mir.p_id) ->
                        operand_keys t.ks
                          (fun k ->
                            if Bitset.mem live k then
                              Hashtbl.replace found p.Mir.p_id
                                { u_preg = p; u_block = b.Mir.b_label; u_inst = i })
                          o
                    | Some _ | None -> ())
                  i i.Mir.n_op.Model.i_reads;
                (* a half written here is no longer upward-exposed *)
                defs t.ks (Bitset.unset live) i)
              b.Mir.b_insts)
          fn.Mir.f_blocks;
      Hashtbl.fold (fun id u acc -> (id, u) :: acc) found []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd

type dead = { k_block : string; k_inst : Mir.inst; k_pregs : Mir.preg list }

(* A dead definition is reportable only when removing the instruction
   would be observably safe: no memory traffic, no control transfer, no
   temporal-clock advance, no implicit or named register writes, and
   every written operand a whole pseudo. *)
let removable (i : Mir.inst) =
  let op = i.Mir.n_op in
  (not op.Model.i_loads) && (not op.Model.i_stores) && (not op.Model.i_branch)
  && (not op.Model.i_call) && op.Model.i_affects = None && i.Mir.n_xdef = []
  && op.Model.i_wnames = [] && op.Model.i_writes <> []
  && List.for_all
       (fun pos ->
         match i.Mir.n_ops.(pos) with Mir.Opreg _ -> true | _ -> false)
       op.Model.i_writes

let dead_stores t (fn : Mir.func) =
  List.concat_map
    (fun (b : Mir.block) ->
      let live = live_out t b.Mir.b_label in
      List.fold_right
        (fun (i : Mir.inst) deads ->
          let deads =
            if removable i then
              let pregs =
                List.filter_map
                  (fun pos ->
                    match i.Mir.n_ops.(pos) with
                    | Mir.Opreg p -> Some p
                    | _ -> None)
                  i.Mir.n_op.Model.i_writes
              in
              let dead = ref true in
              defs t.ks (fun k -> if Bitset.mem live k then dead := false) i;
              if !dead then
                { k_block = b.Mir.b_label; k_inst = i; k_pregs = pregs }
                :: deads
              else deads
            else deads
          in
          step_keys t.ks i live;
          deads)
        b.Mir.b_insts [])
    fn.Mir.f_blocks
