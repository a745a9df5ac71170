(* Translation validation; see transval.mli for the contract and codes. *)

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let copy_inst (i : Mir.inst) = { i with Mir.n_ops = Array.copy i.Mir.n_ops }

let capture (fn : Mir.func) =
  {
    fn with
    Mir.f_blocks =
      List.map
        (fun (b : Mir.block) ->
          { b with Mir.b_insts = List.map copy_inst b.Mir.b_insts })
        fn.Mir.f_blocks;
  }

let validated_phase = function
  | Diag.Post_regalloc | Diag.Post_sched -> true
  | Diag.Post_select | Diag.Final -> false

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let pp_i model ppf i = Mir.pp_inst model ppf i

(* The validator re-derives the move shape rather than importing the
   allocator's: a validator sharing the code it audits proves less. *)
let move_shape (i : Mir.inst) =
  match i.Mir.n_op.Model.i_sem with
  | [ Ast.Sassign (Ast.Lopnd 1, Ast.Eopnd n) ]
    when n >= 1 && n <= Array.length i.Mir.n_ops -> (
      match
        (Mir.operand_reg i.Mir.n_ops.(0), Mir.operand_reg i.Mir.n_ops.(n - 1))
      with
      | Some d, Some s -> Some (d, s)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Schedval: legal linearization of the rebuilt dependence DAG         *)
(* ------------------------------------------------------------------ *)

let edge_code = function
  | Dag.True -> "V004"
  | Dag.Mem -> "V005"
  | Dag.Anti -> "V006"
  | Dag.Temporal _ -> "V007"

let edge_kind_name = function
  | Dag.True -> "true-dependence"
  | Dag.Mem -> "memory-ordering"
  | Dag.Anti -> "anti/output (or sequence-protection)"
  | Dag.Temporal k -> Printf.sprintf "temporal (clock %d)" k

let schedval model ?func ?block ?oracle ~before (out : Mir.inst list) :
    Diag.t list =
  let ds = ref [] in
  let report ~code fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_sched ?func ?block ~code msg :: !ds)
      fmt
  in
  (* the scheduler drops pre-existing nops and re-inserts fresh ones for
     unfilled delay slots: compare modulo nops on both sides *)
  let body = List.filter (fun i -> not (Listsched.is_nop i)) before in
  let in_ids = Hashtbl.create 16 in
  List.iter (fun (i : Mir.inst) -> Hashtbl.replace in_ids i.Mir.n_id ()) body;
  let pos = Hashtbl.create 16 in
  List.iteri
    (fun k (i : Mir.inst) ->
      if Hashtbl.mem in_ids i.Mir.n_id then begin
        if Hashtbl.mem pos i.Mir.n_id then
          report ~code:"V002"
            "instruction `%a' appears more than once in the schedule"
            (pp_i model) i
        else Hashtbl.replace pos i.Mir.n_id k
      end
      else if not (Listsched.is_nop i) then
        report ~code:"V003"
          "scheduling inserted non-nop instruction `%a'" (pp_i model) i)
    out;
  List.iter
    (fun (i : Mir.inst) ->
      if not (Hashtbl.mem pos i.Mir.n_id) then
        report ~code:"V001" "instruction `%a' was dropped by scheduling"
          (pp_i model) i)
    body;
  (* rebuild the DAG the scheduler saw — type 1/2/3 edges, %aux latency
     overrides, temporal sequence protection, and the same alias oracle
     when disambiguation was on — and require the output order to respect
     every edge *)
  let dag = Dag.build ?oracle model body in
  List.iter
    (fun (e : Dag.edge) ->
      let src = dag.Dag.insts.(e.Dag.e_src) in
      let dst = dag.Dag.insts.(e.Dag.e_dst) in
      match
        (Hashtbl.find_opt pos src.Mir.n_id, Hashtbl.find_opt pos dst.Mir.n_id)
      with
      | Some ps, Some pd when ps >= pd ->
          report ~code:(edge_code e.Dag.e_kind)
            "%s edge violated: `%a' must issue before `%a' (label %d)"
            (edge_kind_name e.Dag.e_kind)
            (pp_i model) src (pp_i model) dst e.Dag.e_label
      | _ -> ())
    dag.Dag.edges;
  List.rev !ds

let schedval_func ?(disambig = false) ?analysis ~before (after : Mir.func) =
  let model = after.Mir.f_model in
  let func = after.Mir.f_name in
  (* the same oracle the scheduler used: disambiguation is computed from
     the pre-pass function state, which is exactly the captured input.
     [analysis] lets the caller hand over the analysis it already
     computed from that state (capture preserves instruction ids, so the
     oracle applies verbatim) instead of solving again. *)
  let oracle =
    if disambig then
      let d =
        match analysis with
        | Some d -> d
        | None -> Disambig.compute before
      in
      Some (Dag.oracle (Disambig.may_alias d))
    else None
  in
  let ds = ref [] in
  let structure fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_sched ~func ~code:"V008" msg :: !ds)
      fmt
  in
  let rec pair bs1 bs2 =
    match (bs1, bs2) with
    | [], [] -> ()
    | (b1 : Mir.block) :: t1, (b2 : Mir.block) :: t2
      when b1.Mir.b_label = b2.Mir.b_label ->
        ds :=
          List.rev_append
            (schedval model ~func ~block:b1.Mir.b_label ?oracle
               ~before:b1.Mir.b_insts b2.Mir.b_insts)
            !ds;
        pair t1 t2
    | b1 :: _, b2 :: _ ->
        structure "block structure changed by scheduling: %s became %s"
          b1.Mir.b_label b2.Mir.b_label
    | b :: _, [] ->
        structure "block %s disappeared during scheduling" b.Mir.b_label
    | [], b :: _ ->
        structure "block %s appeared during scheduling" b.Mir.b_label
  in
  pair before.Mir.f_blocks after.Mir.f_blocks;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Regval: symbolic lockstep execution of allocation + spilling        *)
(* ------------------------------------------------------------------ *)

(* Symbolic values are integer tags over byte-granular storage: each
   register bank is a byte array of tags (0 = untouched since block
   entry), tracked separately for the input (pre-allocation) and output
   (post-allocation) versions, so %equiv pair clobbering falls out of
   byte overlap. Pseudo-registers carry a current tag on the input side;
   allocator-created spill slots are byte arrays of tags on the output
   side, so a store of one half retags only that half. *)

type bank_state = int array array

let read_bytes (arr : bank_state) (bk, off, sz) =
  let bank = arr.(bk) in
  let t = bank.(off) in
  let uniform = ref true in
  for k = off + 1 to off + sz - 1 do
    if bank.(k) <> t then uniform := false
  done;
  if not !uniform then `Mixed else if t = 0 then `Untouched else `Tag t

let write_bytes (arr : bank_state) (bk, off, sz) t =
  Array.fill arr.(bk) off sz t

(* after a partial (Opart) def, the untouched bytes of the containing
   register are semantically part of the new value: retag the maximal
   contiguous run of old-tagged bytes around the written range *)
let extend_adjacent (arr : bank_state) (bk, off, sz) ~old t =
  let bank = arr.(bk) in
  let n = Array.length bank in
  let k = ref (off - 1) in
  while !k >= 0 && bank.(!k) = old do
    bank.(!k) <- t;
    decr k
  done;
  let k = ref (off + sz) in
  while !k < n && bank.(!k) = old do
    bank.(!k) <- t;
    incr k
  done

(* [Opreg p] under an assigned register, [Opart]s resolved to
   subregisters — what a correct rewrite must have produced *)
let rec rewrite_preg_operand model (o : Mir.operand) r =
  match o with
  | Mir.Opreg _ -> Some (Mir.Ophys r)
  | Mir.Opart (inner, k) -> (
      match rewrite_preg_operand model inner r with
      | Some (Mir.Ophys rr) -> (
          match Model.subreg model rr k with
          | Some sub -> Some (Mir.Ophys sub)
          | None -> None)
      | _ -> None)
  | _ -> None

(* a physical-register operand after rewriting: unchanged, with
   [Opart]s resolved *)
let rec resolve_parts model (o : Mir.operand) =
  match o with
  | Mir.Ophys r -> Some (Mir.Ophys r)
  | Mir.Opart (inner, k) -> (
      match resolve_parts model inner with
      | Some (Mir.Ophys r) -> (
          match Model.subreg model r k with
          | Some sub -> Some (Mir.Ophys sub)
          | None -> None)
      | _ -> None)
  | _ -> None

let regval_func ~before (after : Mir.func) =
  let model = after.Mir.f_model in
  let func = after.Mir.f_name in
  let ds = ref [] in
  let report ?block ~code fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_regalloc ~func ?block ~code msg :: !ds)
      fmt
  in
  (* the allocator's claimed assignment (Mir.f_locations) *)
  let loc_of : (int, Mir.location) Hashtbl.t = Hashtbl.create 32 in
  let preg_of_slot : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (pid, l) ->
      if not (Hashtbl.mem loc_of pid) then Hashtbl.replace loc_of pid l;
      match l with
      | Mir.Lslot s -> Hashtbl.replace preg_of_slot s pid
      | Mir.Lreg _ -> ())
    after.Mir.f_locations;
  (* slots at ids >= the captured next-slot are allocator-created spill
     slots; everything below is program memory, which stays opaque *)
  let base_slot = before.Mir.f_next_slot in
  let tag_ctr = ref 0 in
  let fresh_tag () =
    incr tag_ctr;
    !tag_ctr
  in
  let fp = model.Model.cwvm.Model.v_fp in
  let check_block (b_in : Mir.block) (b_out : Mir.block) =
    let block = b_in.Mir.b_label in
    let report ~code fmt = report ~block ~code fmt in
    let bytes_in : bank_state =
      Array.map (fun n -> Array.make (max n 1) 0) model.Model.banks
    in
    let bytes_out : bank_state =
      Array.map (fun n -> Array.make (max n 1) 0) model.Model.banks
    in
    let ptag : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let pentry : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let slot_bytes : (int, int array) Hashtbl.t = Hashtbl.create 8 in
    (* the value a partial def of a spilled pseudo replaced, by new tag *)
    let prev_tag : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let tag_of_preg (p : Mir.preg) =
      match Hashtbl.find_opt ptag p.Mir.p_id with
      | Some t -> t
      | None ->
          let t = fresh_tag () in
          Hashtbl.replace ptag p.Mir.p_id t;
          Hashtbl.replace pentry p.Mir.p_id t;
          t
    in
    let entry_tag pid =
      match Hashtbl.find_opt pentry pid with
      | Some t -> t
      | None ->
          let t = fresh_tag () in
          Hashtbl.replace pentry pid t;
          if not (Hashtbl.mem ptag pid) then Hashtbl.replace ptag pid t;
          t
    in
    let slot_of_id s =
      match Hashtbl.find_opt slot_bytes s with
      | Some a -> a
      | None ->
          (* first touch: the slot holds its pseudo's block-entry value *)
          let t =
            match Hashtbl.find_opt preg_of_slot s with
            | Some pid -> entry_tag pid
            | None -> fresh_tag ()
          in
          let size =
            List.fold_left
              (fun acc (id, size, _) -> if id = s then size else acc)
              0 after.Mir.f_slots
          in
          let a = Array.make (max size 1) t in
          Hashtbl.replace slot_bytes s a;
          a
    in
    (* Lazy live-in binding: untouched physical storage is bound to a
       fresh value at first touch — on BOTH sides, because a block-entry
       register holds the same value in the input and output versions
       (the allocator does not move live-in physical registers). A side
       already partially written keeps its bytes. *)
    let bind_entry b =
      let t = fresh_tag () in
      let stamp (arr : bank_state) =
        if read_bytes arr b = `Untouched then write_bytes arr b t
      in
      stamp bytes_in;
      stamp bytes_out;
      t
    in
    (* read a register's bytes lazily: untouched storage is bound to the
       expected value at first use (live-in trust, see transval.mli) *)
    let read_in r =
      let b = Model.reg_bytes model r in
      match read_bytes bytes_in b with
      | `Tag t -> Some t
      | `Untouched -> Some (bind_entry b)
      | `Mixed -> None
    in
    (* the output register that a rewritten operand physically reads *)
    let out_root (o : Mir.operand) =
      match Mir.operand_reg o with Some (`Phys w) -> Some w | _ -> None
    in
    let check_out_value ~what w expected ~bind_untouched ~miss_code =
      let b = Model.reg_bytes model w in
      match read_bytes bytes_out b with
      | `Tag t when t = expected -> ()
      | `Untouched when bind_untouched -> write_bytes bytes_out b expected
      | `Untouched ->
          report ~code:miss_code
            "%s reads %a, which holds no reloaded value" what
            (Model.pp_reg model) w
      | `Mixed ->
          report ~code:"V019"
            "%s reads %a, which is partially clobbered" what
            (Model.pp_reg model) w
      | `Tag _ ->
          report ~code:miss_code
            "%s reads %a, which holds a different value" what
            (Model.pp_reg model) w
    in
    let check_read (i_in : Mir.inst) (i_out : Mir.inst) pos =
      let o_in = i_in.Mir.n_ops.(pos) and o_out = i_out.Mir.n_ops.(pos) in
      let what =
        Format.asprintf "use of operand %d of `%a'" (pos + 1)
          (pp_i model) i_in
      in
      match Mir.operand_reg o_in with
      | Some (`Preg p) -> (
          let expected = tag_of_preg p in
          match Hashtbl.find_opt loc_of p.Mir.p_id with
          | Some (Mir.Lreg r) -> (
              (match rewrite_preg_operand model o_in r with
              | Some w when w = o_out -> ()
              | Some _ | None ->
                  report ~code:"V012"
                    "operand %d of `%a' is not %%p%d's assigned register \
                     %a (found `%a')"
                    (pos + 1) (pp_i model) i_in p.Mir.p_id
                    (Model.pp_reg model) r (Mir.pp_operand model) o_out);
              match out_root o_out with
              | Some w ->
                  check_out_value ~what w expected ~bind_untouched:true
                    ~miss_code:"V017"
              | None -> ())
          | Some (Mir.Lslot _) -> (
              (* spilled: the use must read a reloaded temporary *)
              match out_root o_out with
              | Some w ->
                  check_out_value ~what w expected ~bind_untouched:false
                    ~miss_code:"V018"
              | None ->
                  report ~code:"V018"
                    "%s of spilled %%p%d was not rewritten to a register"
                    what p.Mir.p_id)
          | None ->
              report ~code:"V011"
                "pseudo-register %%p%d has no recorded location" p.Mir.p_id)
      | Some (`Phys r) -> (
          (match resolve_parts model o_in with
          | Some w when w = o_out -> ()
          | Some _ | None ->
              report ~code:"V012"
                "physical operand %d of `%a' changed to `%a'" (pos + 1)
                (pp_i model) i_in (Mir.pp_operand model) o_out);
          match (read_in r, out_root o_out) with
          | Some t, Some w ->
              check_out_value ~what w t ~bind_untouched:true
                ~miss_code:"V017"
          | _ -> ())
      | None ->
          if o_in <> o_out then
            report ~code:"V012"
              "operand %d of `%a' changed from `%a' to `%a'" (pos + 1)
              (pp_i model) i_in (Mir.pp_operand model) o_in
              (Mir.pp_operand model) o_out
    in
    let check_def (i_in : Mir.inst) (i_out : Mir.inst) pos =
      let o_in = i_in.Mir.n_ops.(pos) and o_out = i_out.Mir.n_ops.(pos) in
      let t = fresh_tag () in
      let partial = match o_in with Mir.Opart _ -> true | _ -> false in
      match Mir.operand_reg o_in with
      | Some (`Preg p) -> (
          let old = Hashtbl.find_opt ptag p.Mir.p_id in
          Hashtbl.replace ptag p.Mir.p_id t;
          if not (Hashtbl.mem pentry p.Mir.p_id) then
            Hashtbl.replace pentry p.Mir.p_id (-1);
          match Hashtbl.find_opt loc_of p.Mir.p_id with
          | Some (Mir.Lreg r) ->
              (match rewrite_preg_operand model o_in r with
              | Some w when w = o_out -> ()
              | Some _ | None ->
                  report ~code:"V012"
                    "def operand %d of `%a' is not %%p%d's assigned \
                     register %a (found `%a')"
                    (pos + 1) (pp_i model) i_in p.Mir.p_id
                    (Model.pp_reg model) r (Mir.pp_operand model) o_out);
              (* the whole assigned register now carries the new value *)
              write_bytes bytes_out (Model.reg_bytes model r) t
          | Some (Mir.Lslot _) -> (
              (* spilled: the def writes a temporary; a spill store must
                 follow (checked when the store is consumed) *)
              match out_root o_out with
              | Some w ->
                  let b = Model.reg_bytes model w in
                  write_bytes bytes_out b t;
                  if partial then
                    Option.iter
                      (fun old ->
                        extend_adjacent bytes_out b ~old t;
                        Hashtbl.replace prev_tag t old)
                      old
              | None ->
                  report ~code:"V012"
                    "def of spilled %%p%d was not rewritten to a register"
                    p.Mir.p_id)
          | None ->
              report ~code:"V011"
                "pseudo-register %%p%d has no recorded location" p.Mir.p_id)
      | Some (`Phys r) ->
          (match resolve_parts model o_in with
          | Some w when w = o_out -> ()
          | Some _ | None ->
              report ~code:"V012"
                "physical def operand %d of `%a' changed to `%a'" (pos + 1)
                (pp_i model) i_in (Mir.pp_operand model) o_out);
          (* partial phys defs retag the whole root on both sides *)
          write_bytes bytes_in (Model.reg_bytes model r) t;
          write_bytes bytes_out (Model.reg_bytes model r) t
      | None ->
          if o_in <> o_out then
            report ~code:"V012"
              "operand %d of `%a' changed from `%a' to `%a'" (pos + 1)
              (pp_i model) i_in (Mir.pp_operand model) o_in
              (Mir.pp_operand model) o_out
    in
    let handle_matched (i_in : Mir.inst) (i_out : Mir.inst) =
      if Array.length i_in.Mir.n_ops <> Array.length i_out.Mir.n_ops then
        report ~code:"V012" "`%a' changed arity during allocation"
          (pp_i model) i_in
      else begin
        let arity = Array.length i_in.Mir.n_ops in
        let op = i_in.Mir.n_op in
        (* non-register operands must survive unchanged *)
        Array.iteri
          (fun k o_in ->
            if Mir.operand_reg o_in = None && o_in <> i_out.Mir.n_ops.(k)
            then
              report ~code:"V012"
                "operand %d of `%a' changed from `%a' to `%a'" (k + 1)
                (pp_i model) i_in (Mir.pp_operand model) o_in
                (Mir.pp_operand model) i_out.Mir.n_ops.(k))
          i_in.Mir.n_ops;
        List.iter
          (fun pos -> if pos < arity then check_read i_in i_out pos)
          op.Model.i_reads;
        (* implicit reads: same registers on both sides, values must
           agree *)
        List.iter
          (fun r ->
            match read_in r with
            | Some t ->
                check_out_value
                  ~what:
                    (Format.asprintf "implicit use by `%a'" (pp_i model) i_in)
                  r t ~bind_untouched:true ~miss_code:"V017"
            | None -> ())
          i_in.Mir.n_xuse;
        List.iter
          (fun pos -> if pos < arity then check_def i_in i_out pos)
          op.Model.i_writes;
        (* implicit defs (call clobbers, named single-register classes)
           havoc the same storage on both sides with one shared tag *)
        let clobber r =
          let t = fresh_tag () in
          write_bytes bytes_in (Model.reg_bytes model r) t;
          write_bytes bytes_out (Model.reg_bytes model r) t
        in
        List.iter clobber i_in.Mir.n_xdef;
        List.iter
          (fun cid -> clobber (Locs.named_reg model cid))
          op.Model.i_wnames
      end
    in
    let spill_slot_of (i : Mir.inst) =
      Array.fold_left
        (fun acc o ->
          match (acc, o) with
          | None, Mir.Oslot (s, off) when s >= base_slot -> Some (s, off)
          | _ -> acc)
        None i.Mir.n_ops
    in
    (* the slot bytes a spill access of register [w] at [off] covers *)
    let slot_range o (s, off) w =
      let a = slot_of_id s and bk, roff, size = Model.reg_bytes model w in
      if off < 0 || off + size > Array.length a then begin
        report ~code:"V016" "spill access `%a' lies outside its slot"
          (pp_i model) o;
        None
      end
      else Some (a, bk, roff, size)
    in
    let handle_fresh (o : Mir.inst) =
      if Listsched.is_nop o then ()
      else
        match spill_slot_of o with
        | Some sl when o.Mir.n_op.Model.i_loads -> (
            (* spill reload: the destination receives the slot's value *)
            let dst =
              List.fold_left
                (fun acc pos ->
                  match acc with
                  | Some _ -> acc
                  | None -> (
                      match Mir.operand_reg o.Mir.n_ops.(pos) with
                      | Some (`Phys w) -> Some w
                      | _ -> None))
                None o.Mir.n_op.Model.i_writes
            in
            match dst with
            | Some w ->
                Option.iter
                  (fun (a, bk, roff, size) ->
                    Array.blit a (snd sl) bytes_out.(bk) roff size)
                  (slot_range o sl w)
            | None ->
                report ~code:"V016"
                  "inserted reload `%a' has no register destination"
                  (pp_i model) o)
        | Some sl when o.Mir.n_op.Model.i_stores -> (
            (* spill store: the slot receives the value register's tag;
               the frame pointer base is not the value *)
            let vals =
              List.filter_map
                (fun pos ->
                  match Mir.operand_reg o.Mir.n_ops.(pos) with
                  | Some (`Phys w) when not (Model.reg_equal w fp) -> Some w
                  | _ -> None)
                o.Mir.n_op.Model.i_reads
            in
            match vals with
            | [ w ] -> (
                let b = Model.reg_bytes model w in
                let store t =
                  Option.iter
                    (fun (a, _, _, size) ->
                      let off = snd sl in
                      Array.fill a off size t;
                      (* a half store completes the value its partial def
                         made from the slot's other half *)
                      Option.iter
                        (fun old -> extend_adjacent [| a |] (0, off, size) ~old t)
                        (Hashtbl.find_opt prev_tag t))
                    (slot_range o sl w)
                in
                match read_bytes bytes_out b with
                | `Tag t -> store t
                | `Untouched -> store (bind_entry b)
                | `Mixed ->
                    report ~code:"V020"
                      "spill store `%a' writes a partially clobbered value"
                      (pp_i model) o)
            | _ ->
                report ~code:"V016"
                  "inserted spill store `%a' has no single value register"
                  (pp_i model) o)
        | _ -> (
            match move_shape o with
            | Some (`Phys d, `Phys s) ->
                (* an inserted copy: byte-wise value transfer *)
                let bks, offs, szs = Model.reg_bytes model s in
                let bkd, offd, szd = Model.reg_bytes model d in
                if read_bytes bytes_out (bks, offs, szs) = `Untouched then
                  ignore (bind_entry (bks, offs, szs));
                for k = 0 to min szs szd - 1 do
                  bytes_out.(bkd).(offd + k) <- bytes_out.(bks).(offs + k)
                done
            | _ ->
                report ~code:"V016"
                  "allocation inserted unrecognized instruction `%a'"
                  (pp_i model) o)
    in
    let handle_deleted (i : Mir.inst) =
      match move_shape i with
      | Some (d, s) -> (
          (* a move that became the identity: on the input side the
             destination now aliases the source's value; coherence of
             later uses enforces that the identity claim was true *)
          let src_tag =
            match s with
            | `Preg q -> Some (tag_of_preg q)
            | `Phys r -> read_in r
          in
          match (d, src_tag) with
          | `Preg p, Some t -> Hashtbl.replace ptag p.Mir.p_id t
          | `Phys r, Some t ->
              write_bytes bytes_in (Model.reg_bytes model r) t
          | _, None -> ())
      | None ->
          report ~code:"V015"
            "allocation deleted non-move instruction `%a'" (pp_i model) i
    in
    let input = Array.of_list b_in.Mir.b_insts in
    let in_pos = Hashtbl.create 16 in
    Array.iteri
      (fun k (i : Mir.inst) -> Hashtbl.replace in_pos i.Mir.n_id k)
      input;
    let matched = Hashtbl.create 16 in
    let cursor = ref 0 in
    List.iter
      (fun (o : Mir.inst) ->
        match Hashtbl.find_opt in_pos o.Mir.n_id with
        | None -> handle_fresh o
        | Some k ->
            if Hashtbl.mem matched o.Mir.n_id then
              report ~code:"V014"
                "instruction `%a' appears more than once after allocation"
                (pp_i model) o
            else if k < !cursor then
              report ~code:"V013"
                "allocation reordered instruction `%a'" (pp_i model) o
            else begin
              for j = !cursor to k - 1 do
                handle_deleted input.(j)
              done;
              cursor := k + 1;
              Hashtbl.replace matched o.Mir.n_id ();
              handle_matched input.(k) o
            end)
      b_out.Mir.b_insts;
    for j = !cursor to Array.length input - 1 do
      handle_deleted input.(j)
    done
  in
  let structure fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_regalloc ~func ~code:"V010" msg :: !ds)
      fmt
  in
  let rec pair bs1 bs2 =
    match (bs1, bs2) with
    | [], [] -> ()
    | (b1 : Mir.block) :: t1, (b2 : Mir.block) :: t2
      when b1.Mir.b_label = b2.Mir.b_label ->
        check_block b1 b2;
        pair t1 t2
    | b1 :: _, b2 :: _ ->
        structure "block structure changed by allocation: %s became %s"
          b1.Mir.b_label b2.Mir.b_label
    | b :: _, [] ->
        structure "block %s disappeared during allocation" b.Mir.b_label
    | [], b :: _ ->
        structure "block %s appeared during allocation" b.Mir.b_label
  in
  pair before.Mir.f_blocks after.Mir.f_blocks;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let validate_func ?disambig ?analysis phase ~before (fn : Mir.func) =
  match phase with
  | Diag.Post_regalloc -> regval_func ~before fn
  | Diag.Post_sched -> schedval_func ?disambig ?analysis ~before fn
  | Diag.Post_select | Diag.Final -> []

let validate_prog ?disambig phase ~before (prog : Mir.prog) =
  if not (validated_phase phase) then []
  else begin
    let structure_code =
      match phase with Diag.Post_regalloc -> "V010" | _ -> "V008"
    in
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun (fn : Mir.func) -> Hashtbl.replace by_name fn.Mir.f_name fn)
      before.Mir.p_funcs;
    let ds = ref [] in
    List.iter
      (fun (fn : Mir.func) ->
        match Hashtbl.find_opt by_name fn.Mir.f_name with
        | Some b ->
            Hashtbl.remove by_name fn.Mir.f_name;
            ds :=
              List.rev_append (validate_func ?disambig phase ~before:b fn) !ds
        | None ->
            ds :=
              Diag.make ~phase ~func:fn.Mir.f_name ~code:structure_code
                "function appeared during the pass"
              :: !ds)
      prog.Mir.p_funcs;
    Hashtbl.iter
      (fun name _ ->
        ds :=
          Diag.make ~phase ~func:name ~code:structure_code
            "function disappeared during the pass"
          :: !ds)
      by_name;
    List.rev !ds
  end
