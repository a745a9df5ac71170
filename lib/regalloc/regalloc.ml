module IntSet = Set.Make (Int)

type stats = { rounds : int; spilled : int }

type node = {
  preg : Mir.preg;
  mutable adj : IntSet.t;  (* neighbouring preg ids *)
  mutable forbidden : Model.reg list;  (* overlapping precolored registers *)
  mutable cost : float;  (* spill cost *)
  mutable color : Model.reg option;
  no_spill : bool;  (* spill-code temporaries must color *)
}

(* a pure register-to-register move: its source does not interfere with
   its destination (Chaitin) *)
let move_regs (i : Mir.inst) =
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
(* Interference graph construction                                     *)
(* ------------------------------------------------------------------ *)

let collect_pregs (fn : Mir.func) no_spill_ids =
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          Array.iter
            (fun o ->
              match Mir.operand_reg o with
              | Some (`Preg p) ->
                  if not (Hashtbl.mem nodes p.Mir.p_id) then
                    Hashtbl.replace nodes p.Mir.p_id
                      {
                        preg = p;
                        adj = IntSet.empty;
                        forbidden = [];
                        cost = 0.0;
                        color = None;
                        no_spill = IntSet.mem p.Mir.p_id no_spill_ids;
                      }
              | Some (`Phys _) | None -> ())
            i.Mir.n_ops)
        b.Mir.b_insts)
    fn.Mir.f_blocks;
  nodes

let classes_may_overlap model c1 c2 =
  (Model.class_exn model c1).Model.c_bank = (Model.class_exn model c2).Model.c_bank

(* back edges in layout order delimit loops; nesting = number of enclosing
   [header; latch] ranges *)
let loop_depth (fn : Mir.func) =
  let labels = List.map (fun (b : Mir.block) -> b.Mir.b_label) fn.Mir.f_blocks in
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let ranges = ref [] in
  List.iteri
    (fun bi (b : Mir.block) ->
      List.iter
        (fun succ ->
          match Hashtbl.find_opt index succ with
          | Some hi when hi <= bi -> ranges := (hi, bi) :: !ranges
          | Some _ | None -> ())
        b.Mir.b_succs)
    fn.Mir.f_blocks;
  let depth = Hashtbl.create 16 in
  List.iteri
    (fun i l ->
      let d =
        List.fold_left
          (fun acc (lo, hi) -> if i >= lo && i <= hi then acc + 1 else acc)
          0 !ranges
      in
      Hashtbl.replace depth l d)
    labels;
  depth

(* Edges join pseudo-registers, never halves: each instruction's defs and
   the live keys are visited once per pseudo (its two halves are adjacent
   keys, so the ascending walk meets them in a row). *)
let build_graph (fn : Mir.func) nodes =
  let model = fn.Mir.f_model in
  let live = Liveness.compute fn in
  let depth = loop_depth fn in
  let forbid a k =
    let n = Hashtbl.find nodes a and r = Liveness.reg live k in
    if
      classes_may_overlap model n.preg.Mir.p_cls r.Model.cls
      && not (List.exists (Model.reg_equal r) n.forbidden)
    then n.forbidden <- r :: n.forbidden
  in
  let add_edge k1 k2 =
    let a = Liveness.pseudo live k1 and b = Liveness.pseudo live k2 in
    if a >= 0 && b >= 0 then begin
      if a <> b then begin
        let na = Hashtbl.find nodes a and nb = Hashtbl.find nodes b in
        if classes_may_overlap model na.preg.Mir.p_cls nb.preg.Mir.p_cls then begin
          na.adj <- IntSet.add b na.adj;
          nb.adj <- IntSet.add a nb.adj
        end
      end
    end
    else if a >= 0 then forbid a k2
    else if b >= 0 then forbid b k1
  in
  let cost weight pos (i : Mir.inst) =
    match Mir.operand_reg i.Mir.n_ops.(pos) with
    | Some (`Preg p) ->
        let n = Hashtbl.find nodes p.Mir.p_id in
        n.cost <- n.cost +. weight
    | Some (`Phys _) | None -> ()
  in
  List.iter
    (fun (b : Mir.block) ->
      let d = try Hashtbl.find depth b.Mir.b_label with Not_found -> 0 in
      let weight = 10.0 ** float_of_int (min d 4) in
      let cur = Liveness.live_out live b.Mir.b_label in
      List.iter
        (fun (i : Mir.inst) ->
          (* spill costs: one weight per operand naming the pseudo *)
          List.iter (fun pos -> cost weight pos i) i.Mir.n_op.Model.i_writes;
          List.iter (fun pos -> cost weight pos i) i.Mir.n_op.Model.i_reads;
          let defs = ref [] in
          Liveness.iter_defs live
            (fun k ->
              let p = Liveness.pseudo live k in
              let seen d = Liveness.pseudo live d = p in
              if p < 0 || not (List.exists seen !defs) then defs := k :: !defs)
            i;
          (* a move's source does not interfere with its destination *)
          let src = ref [] in
          (match move_regs i with
          | Some (_, `Preg q) ->
              Liveness.iter_operand live (fun k -> src := k :: !src) (Mir.Opreg q)
          | Some (_, `Phys r) ->
              Liveness.iter_operand live (fun k -> src := k :: !src) (Mir.Ophys r)
          | None -> ());
          List.iter
            (fun d ->
              let prev = ref (-1) in
              Bitset.iter
                (fun l ->
                  let p = Liveness.pseudo live l in
                  if (p < 0 || p <> !prev) && l <> d && not (List.mem l !src) then
                    add_edge d l;
                  prev := p)
                cur;
              (* simultaneous defs interfere *)
              List.iter (fun d2 -> if d2 <> d then add_edge d d2) !defs)
            !defs;
          Liveness.step live i cur)
        (List.rev b.Mir.b_insts))
    fn.Mir.f_blocks

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

let color_order model regs =
  (* prefer caller-save registers so we do not pay save/restore *)
  let caller, callee = List.partition (fun r -> not (Model.is_callee_save model r)) regs in
  caller @ callee

(* Simplify as a worklist (Chaitin/Briggs). A node is colorable while the
   colors its precolored conflicts and its remaining neighbours can block
   leave one free; [blocked] only falls as neighbours are removed, so a
   colorable node stays colorable. Each step removes the colorable node
   with the lowest [p_id], or, when there is none, the first node in [p_id]
   order of least [cost / (degree + 1)] (the spill candidates are sorted
   once, stably); the removed nodes then color in reverse order. *)
let try_color model nodes =
  let order =
    Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
    |> List.sort (fun a b -> compare a.preg.Mir.p_id b.preg.Mir.p_id)
    |> Array.of_list
  in
  let n = Array.length order in
  let index : (int, int) Hashtbl.t = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i u -> Hashtbl.replace index u.preg.Mir.p_id i) order;
  (* per class: the registers it may take, in color order, and their count *)
  let class_regs : (int, int * Model.reg list) Hashtbl.t = Hashtbl.create 4 in
  let regs_of cls =
    match Hashtbl.find_opt class_regs cls with
    | Some r -> r
    | None ->
        let regs = Model.allocable_of_class model cls in
        let r = (List.length regs, color_order model regs) in
        Hashtbl.replace class_regs cls r;
        r
  in
  let avail = Array.map (fun u -> fst (regs_of u.preg.Mir.p_cls)) order in
  let size =
    Array.map
      (fun u -> (Model.class_exn model u.preg.Mir.p_cls).Model.c_size)
      order
  in
  (* worst-case number of i's colors neighbour j can block *)
  let blocking i j = (size.(j) + size.(i) - 1) / size.(i) in
  let adj =
    Array.map
      (fun u -> IntSet.fold (fun v acc -> Hashtbl.find index v :: acc) u.adj [])
      order
  in
  let blocked =
    Array.mapi
      (fun i u ->
        List.fold_left
          (fun acc j -> acc + blocking i j)
          (List.length u.forbidden) adj.(i))
      order
  in
  let ready = ref IntSet.empty in
  Array.iteri (fun i b -> if b < avail.(i) then ready := IntSet.add i !ready) blocked;
  let spill_order =
    let weight i =
      let u = order.(i) in
      (if u.no_spill then 1e18 else u.cost)
      /. float_of_int (IntSet.cardinal u.adj + 1)
    in
    let w = Array.init n weight in
    let a = Array.init n Fun.id in
    Array.stable_sort (fun i j -> compare w.(i) w.(j)) a;
    a
  in
  let removed = Array.make n false in
  let next_spill = ref 0 in
  let stack = ref [] in
  for _ = 1 to n do
    let pick =
      match IntSet.min_elt_opt !ready with
      | Some i ->
          ready := IntSet.remove i !ready;
          i
      | None ->
          (* optimistic: push the cheapest spill candidate *)
          while removed.(spill_order.(!next_spill)) do incr next_spill done;
          spill_order.(!next_spill)
    in
    removed.(pick) <- true;
    stack := order.(pick) :: !stack;
    List.iter
      (fun j ->
        if not removed.(j) then begin
          let was_ready = blocked.(j) < avail.(j) in
          blocked.(j) <- blocked.(j) - blocking j pick;
          if (not was_ready) && blocked.(j) < avail.(j) then
            ready := IntSet.add j !ready
        end)
      adj.(pick)
  done;
  (* select phase: the stack pops in reverse removal order *)
  let spilled = ref [] in
  List.iter
    (fun (u : node) ->
      let taken =
        IntSet.fold
          (fun vid acc ->
            match (Hashtbl.find nodes vid).color with
            | Some r -> r :: acc
            | None -> acc)
          u.adj u.forbidden
      in
      let model_overlap r r' = Model.regs_overlap model r r' in
      let choice =
        List.find_opt
          (fun r -> not (List.exists (model_overlap r) taken))
          (snd (regs_of u.preg.Mir.p_cls))
      in
      match choice with
      | Some r -> u.color <- Some r
      | None ->
          if u.no_spill then begin
            (* a spill temporary failed to color: its live range is already
               minimal, so relieve the pressure by spilling a neighbouring
               ordinary value instead and let the next round recolor *)
            let victim =
              IntSet.fold
                (fun vid best ->
                  let v = Hashtbl.find nodes vid in
                  if v.no_spill then best
                  else
                    match best with
                    | None -> Some v
                    | Some b -> if v.cost < b.cost then Some v else best)
                u.adj None
            in
            match victim with
            | Some v ->
                if not (List.memq v !spilled) then spilled := v :: !spilled
            | None ->
                Loc.fail Loc.dummy
                  "register allocation: spill temporary %%p%d cannot be \
                   colored and has no spillable neighbour"
                  u.preg.Mir.p_id
          end
          else spilled := u :: !spilled)
    !stack;
  !spilled

(* ------------------------------------------------------------------ *)
(* Spill code                                                          *)
(* ------------------------------------------------------------------ *)

let insert_spills (fn : Mir.func) (spills : node list) fresh_no_spill =
  let model = fn.Mir.f_model in
  let fp = Mir.Ophys model.Model.cwvm.Model.v_fp in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (u : node) ->
      let c = Model.class_exn model u.preg.Mir.p_cls in
      let id = Mir.new_slot fn ~size:c.Model.c_size ~align:c.Model.c_size in
      Hashtbl.replace slot_of u.preg.Mir.p_id id;
      (* location metadata: the pseudo now lives in this frame slot *)
      fn.Mir.f_locations <-
        (u.preg.Mir.p_id, Mir.Lslot id) :: fn.Mir.f_locations)
    spills;
  let rec operand_mentions p (o : Mir.operand) =
    match o with
    | Mir.Opreg q -> q.Mir.p_id = p
    | Mir.Opart (inner, _) -> operand_mentions p inner
    | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> false
  in
  let rec replace p q (o : Mir.operand) =
    match o with
    | Mir.Opreg r when r.Mir.p_id = p -> Mir.Opreg q
    | Mir.Opart (inner, k) -> Mir.Opart (replace p q inner, k)
    | Mir.Opreg _ | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _
    | Mir.Olab _ ->
        o
  in
  List.iter
    (fun (b : Mir.block) ->
      b.Mir.b_insts <-
        List.concat_map
          (fun (i : Mir.inst) ->
            let pre = ref [] and post = ref [] in
            let ops = ref i.Mir.n_ops in
            Hashtbl.iter
              (fun pid slot ->
                let reads =
                  List.exists
                    (fun pos -> operand_mentions pid !ops.(pos))
                    i.Mir.n_op.Model.i_reads
                in
                let writes =
                  List.filter
                    (fun pos -> operand_mentions pid !ops.(pos))
                    i.Mir.n_op.Model.i_writes
                in
                (* a write through a half-register part stores just that
                   half: the other half stays in the slot, so the value
                   needs no reload *)
                let halves =
                  List.filter_map
                    (fun pos ->
                      match (!ops.(pos), i.Mir.n_op.Model.i_opnds.(pos)) with
                      | Mir.Opart (Mir.Opreg _, k), Model.Kreg c -> Some (k, c)
                      | _ -> None)
                    writes
                in
                let whole = List.length halves < List.length writes in
                if reads || writes <> [] then begin
                  let u = List.find (fun u -> u.preg.Mir.p_id = pid) spills in
                  let q = Mir.fresh_preg fn u.preg.Mir.p_cls in
                  fresh_no_spill q;
                  ops := Array.map (replace pid q) !ops;
                  if reads then begin
                    let ld = Frame.find_load_ri model u.preg.Mir.p_cls in
                    pre :=
                      Frame.load_at fn ld ~dst:(Mir.Opreg q) ~base:fp
                        ~off:(Mir.Oslot (slot, 0))
                      :: !pre
                  end;
                  if whole then begin
                    let st = Frame.find_store_ri model u.preg.Mir.p_cls in
                    post :=
                      Frame.store_at fn st ~base:fp ~off:(Mir.Oslot (slot, 0))
                        ~value:(Mir.Opreg q)
                      :: !post
                  end
                  else
                    List.iter
                      (fun (k, c) ->
                        let st = Frame.find_store_ri model c in
                        let off = k * (Model.class_exn model c).Model.c_size in
                        post :=
                          Frame.store_at fn st ~base:fp
                            ~off:(Mir.Oslot (slot, off))
                            ~value:(Mir.Opart (Mir.Opreg q, k))
                          :: !post)
                      halves
                end)
              slot_of;
            List.rev !pre @ [ { i with Mir.n_ops = !ops } ] @ List.rev !post)
          b.Mir.b_insts)
    fn.Mir.f_blocks

(* ------------------------------------------------------------------ *)
(* Rewriting with assigned colors                                      *)
(* ------------------------------------------------------------------ *)

let rewrite_colors (fn : Mir.func) nodes =
  let model = fn.Mir.f_model in
  (* location metadata: every surviving pseudo (spill temporaries
     included) now lives in its color *)
  Hashtbl.iter
    (fun pid (n : node) ->
      match n.color with
      | Some r -> fn.Mir.f_locations <- (pid, Mir.Lreg r) :: fn.Mir.f_locations
      | None -> ())
    nodes;
  let color_of p =
    match (Hashtbl.find nodes p.Mir.p_id).color with
    | Some r -> r
    | None -> assert false
  in
  let rec rw (o : Mir.operand) =
    match o with
    | Mir.Opreg p -> Mir.Ophys (color_of p)
    | Mir.Opart (inner, k) -> (
        match rw inner with
        | Mir.Ophys r -> (
            match Model.subreg model r k with
            | Some sub -> Mir.Ophys sub
            | None ->
                Loc.fail Loc.dummy "no subregister covers part %d of a register" k)
        | other -> Mir.Opart (other, k))
    | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> o
  in
  List.iter
    (fun (b : Mir.block) ->
      b.Mir.b_insts <-
        List.filter_map
          (fun (i : Mir.inst) ->
            let i = { i with Mir.n_ops = Array.map rw i.Mir.n_ops } in
            (* identity moves vanish *)
            match move_regs i with
            | Some (`Phys d, `Phys s) when Model.reg_equal d s -> None
            | _ -> Some i)
          b.Mir.b_insts)
    fn.Mir.f_blocks;
  (* record the callee-save registers this function clobbers *)
  let cwvm = model.Model.cwvm in
  let special r =
    Model.reg_equal r cwvm.Model.v_sp
    || Model.reg_equal r cwvm.Model.v_fp
    || Model.reg_equal r cwvm.Model.v_retaddr
  in
  let saved = ref [] in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          List.iter
            (fun d ->
              match d with
              | `Phys r ->
                  if
                    Model.is_callee_save model r
                    && (not (special r))
                    && not (List.exists (Model.reg_equal r) !saved)
                  then saved := r :: !saved
              | `Preg _ -> ())
            (Mir.inst_defs i))
        b.Mir.b_insts)
    fn.Mir.f_blocks;
  fn.Mir.f_saved <- List.rev !saved

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let allocate ?(forbid_global_pregs = false) (fn : Mir.func) : stats =
  let no_spill = ref IntSet.empty in
  let total_spilled = ref 0 in
  fn.Mir.f_locations <- [];
  (* the local-only baseline: force every cross-block pseudo to memory *)
  if forbid_global_pregs then begin
    let nodes = collect_pregs fn IntSet.empty in
    let globals =
      Hashtbl.fold
        (fun _ n acc -> if n.preg.Mir.p_global then n :: acc else acc)
        nodes []
    in
    total_spilled := List.length globals;
    insert_spills fn globals (fun q -> ignore q)
  end;
  let rec round k =
    if k > 16 then
      Loc.fail Loc.dummy "register allocation did not converge in %s"
        fn.Mir.f_name;
    let nodes = collect_pregs fn !no_spill in
    build_graph fn nodes;
    match try_color fn.Mir.f_model nodes with
    | [] ->
        (* self-check: every interference edge must end up with
           non-overlapping registers, and precolored conflicts must be
           respected *)
        Hashtbl.iter
          (fun _ (u : node) ->
            let cu = Option.get u.color in
            IntSet.iter
              (fun vid ->
                let v = Hashtbl.find nodes vid in
                let cv = Option.get v.color in
                if Model.regs_overlap fn.Mir.f_model cu cv then
                  Loc.fail Loc.dummy
                    "register allocation self-check: %%p%d and %%p%d share \
                     overlapping registers"
                    u.preg.Mir.p_id v.preg.Mir.p_id)
              u.adj;
            List.iter
              (fun r ->
                if Model.regs_overlap fn.Mir.f_model cu r then
                  Loc.fail Loc.dummy
                    "register allocation self-check: %%p%d overlaps a live \
                     physical register"
                    u.preg.Mir.p_id)
              u.forbidden)
          nodes;
        rewrite_colors fn nodes;
        { rounds = k; spilled = !total_spilled }
    | spills ->
        total_spilled := !total_spilled + List.length spills;
        insert_spills fn spills (fun q ->
            no_spill := IntSet.add q.Mir.p_id !no_spill);
        round (k + 1)
  in
  round 1
