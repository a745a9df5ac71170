type cache_config = { lines : int; line_bytes : int; miss_penalty : int }

type config = {
  memory_size : int;
  fuel : int;
  cache : cache_config option;
  trace_limit : int;  (* record the first N issued instructions *)
}

let default_config =
  { memory_size = 8 * 1024 * 1024; fuel = 400_000_000; cache = None;
    trace_limit = 0 }

type result = {
  output : string;
  return_value : int;
  cycles : int;
  instructions : int;
  block_freq : (string, int) Hashtbl.t;
  loads : int;
  cache_misses : int;
  trace : (int * string) list;  (* (cycle, instruction) for the first
                                    [trace_limit] issues *)
}

exception Sim_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Sim_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

type value = Vi of int | Vf of float

let vi = function Vi n -> n | Vf f -> int_of_float f

let vf = function Vf f -> f | Vi n -> float_of_int n

(* memory / register access kinds *)
type access = { a_width : int; a_float : bool }

let word = { a_width = 4; a_float = false }

let access_of_vtype = function
  | Ast.Char -> { a_width = 1; a_float = false }
  | Ast.Short -> { a_width = 2; a_float = false }
  | Ast.Int | Ast.Long -> word
  | Ast.Float -> { a_width = 4; a_float = true }
  | Ast.Double -> { a_width = 8; a_float = true }

let access_of_class model cid =
  let c = Model.class_exn model cid in
  let flt =
    List.exists (fun t -> t = Ast.Float || t = Ast.Double) c.Model.c_types
  in
  { a_width = c.Model.c_size; a_float = flt }

(* byte-level readers and writers, specialized to an access kind once *)
let getter (a : access) : Bytes.t -> int -> value =
  if a.a_float then
    if a.a_width = 8 then fun b o -> Vf (Int64.float_of_bits (Bytes.get_int64_le b o))
    else fun b o -> Vf (Int32.float_of_bits (Bytes.get_int32_le b o))
  else
    match a.a_width with
    | 1 ->
        fun b o ->
          let v = Bytes.get_uint8 b o in
          Vi (if v land 0x80 <> 0 then v - 0x100 else v)
    | 2 ->
        fun b o ->
          let v = Bytes.get_uint16_le b o in
          Vi (if v land 0x8000 <> 0 then v - 0x10000 else v)
    | _ -> fun b o -> Vi (Int32.to_int (Bytes.get_int32_le b o))

let setter (a : access) : Bytes.t -> int -> value -> unit =
  if a.a_float then
    if a.a_width = 8 then fun b o v -> Bytes.set_int64_le b o (Int64.bits_of_float (vf v))
    else fun b o v -> Bytes.set_int32_le b o (Int32.bits_of_float (vf v))
  else
    match a.a_width with
    | 1 -> fun b o v -> Bytes.set_uint8 b o (vi v land 0xFF)
    | 2 -> fun b o v -> Bytes.set_uint16_le b o (vi v land 0xFFFF)
    | _ -> fun b o v -> Bytes.set_int32_le b o (Int32.of_int (vi v))

(* ------------------------------------------------------------------ *)
(* Loaded program                                                      *)
(* ------------------------------------------------------------------ *)

type soperand =
  | Simm of int
  | Sreg of Model.reg
  | Slab of int  (* code index *)

type sinst = {
  s_op : Model.instr;
  s_ops : soperand array;
  s_label : string option;  (* set on the first instruction of a block *)
}

type program = {
  code : sinst array;
  entry : int;  (* index of main *)
  data : bytes;  (* initial memory image (globals) *)
  builtin_at : (int, string) Hashtbl.t;  (* code index -> builtin name *)
}

let builtin_names = [ "print_int"; "print_char"; "print_double" ]

(* the kind of an operand's register class (immediates and labels: word) *)
let opnd_kind model (op : Model.instr) pos =
  match op.Model.i_opnds.(pos) with
  | Model.Kreg c -> access_of_class model c
  | Model.Kregfix r -> access_of_class model r.Model.cls
  | Model.Kimm _ | Model.Klab _ -> word

(* a store's kind: its conversion's type, else the instruction's type, else
   the stored operand's class *)
let store_kind model (op : Model.instr) =
  match
    ( List.find_map
        (function Ast.Sassign (Ast.Lmem _, v) -> Some v | _ -> None)
        op.Model.i_sem,
      op.Model.i_type )
  with
  | Some (Ast.Ecvt (vt, _)), _ | Some _, Some vt -> access_of_vtype vt
  | Some (Ast.Eopnd n), None -> opnd_kind model op (n - 1)
  | (Some _ | None), _ -> word

(* a load's kind: the instruction's type, else its destination's class *)
let load_kind model (op : Model.instr) =
  match (op.Model.i_loads, op.Model.i_type, op.Model.i_writes) with
  | false, _, _ | true, None, [] -> word
  | true, Some vt, _ -> access_of_vtype vt
  | true, None, pos :: _ -> opnd_kind model op pos

let align_up v a = (v + a - 1) / a * a

let load_program (prog : Mir.prog) memory_size : program =
  let model = prog.Mir.p_model in
  (* data segment *)
  let data = Bytes.make memory_size '\000' in
  let daddr : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let cursor = ref 64 in
  List.iter
    (fun (g : Mir.global) ->
      cursor := align_up !cursor (max 1 g.Mir.g_align);
      Hashtbl.replace daddr g.Mir.g_name !cursor;
      Bytes.blit g.Mir.g_bytes 0 data !cursor (Bytes.length g.Mir.g_bytes);
      cursor := !cursor + Bytes.length g.Mir.g_bytes)
    prog.Mir.p_globals;
  (* code layout: two passes (labels first) *)
  let label_at : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let builtin_at = Hashtbl.create 4 in
  let counter = ref 0 in
  List.iter
    (fun (fn : Mir.func) ->
      Hashtbl.replace label_at fn.Mir.f_name !counter;
      List.iter
        (fun (b : Mir.block) ->
          Hashtbl.replace label_at b.Mir.b_label !counter;
          counter := !counter + List.length b.Mir.b_insts)
        fn.Mir.f_blocks)
    prog.Mir.p_funcs;
  (* builtins get one pseudo slot each so calls have a target index *)
  List.iter
    (fun name ->
      Hashtbl.replace label_at name !counter;
      Hashtbl.replace builtin_at !counter name;
      incr counter)
    builtin_names;
  let ncode = !counter in
  let dummy =
    {
      s_op =
        (match Model.find_nop model with
        | Some n -> n
        | None -> fail "%s: description has no nop instruction" model.Model.name);
      s_ops = [||];
      s_label = None;
    }
  in
  let code = Array.make ncode dummy in
  let resolve_operand (o : Mir.operand) : soperand =
    match o with
    | Mir.Oimm v -> Simm v
    | Mir.Ophys r -> Sreg r
    | Mir.Osym (s, a) -> (
        match Hashtbl.find_opt daddr s with
        | Some addr -> Simm (addr + a)
        | None -> (
            match Hashtbl.find_opt label_at s with
            | Some idx -> Slab idx
            | None -> fail "undefined symbol %S" s))
    | Mir.Olab l -> (
        match Hashtbl.find_opt label_at l with
        | Some idx -> Slab idx
        | None -> fail "undefined label %S" l)
    | Mir.Opreg _ | Mir.Opart _ | Mir.Oslot _ ->
        fail "unresolved operand reaches the simulator (%s)"
          (Format.asprintf "%a" (Mir.pp_operand model) o)
  in
  let pos = ref 0 in
  List.iter
    (fun (fn : Mir.func) ->
      List.iter
        (fun (b : Mir.block) ->
          List.iteri
            (fun k (i : Mir.inst) ->
              code.(!pos) <-
                {
                  s_op = i.Mir.n_op;
                  s_ops = Array.map resolve_operand i.Mir.n_ops;
                  s_label = (if k = 0 then Some b.Mir.b_label else None);
                };
              incr pos)
            b.Mir.b_insts)
        fn.Mir.f_blocks)
    prog.Mir.p_funcs;
  let entry =
    match Hashtbl.find_opt label_at "main" with
    | Some e -> e
    | None -> fail "program has no main function"
  in
  { code; entry; data; builtin_at }

(* ------------------------------------------------------------------ *)
(* Machine state and decoded code                                      *)
(* ------------------------------------------------------------------ *)

(* Register bytes of every bank are numbered in one flat space, so the
   hazard arrays are plain int arrays and a register is a byte range. *)
type state = {
  model : Model.t;
  cfg : config;
  mutable code : dinst array;
  builtin_at : (int, string) Hashtbl.t;
  banks : Bytes.t array;
  bank_base : int array;  (* flat number of each bank's byte 0 *)
  ready : int array;  (* per flat byte: cycle the value is ready *)
  writer : int array;  (* code index of the last writer, or -1 *)
  wcycle : int array;
  mem : Bytes.t;
  out : Buffer.t;
  mutable pc : int;
  mutable cycle : int;
  mutable icount : int;
  mutable nloads : int;
  mutable misses : int;
  (* pending branch: target and delay slots remaining (-1 = none) *)
  mutable br_target : int;
  mutable br_slots : int;
  mutable halted : bool;
  mutable trace_acc : (int * string) list;
  freq : int array;  (* executions per block, at its first code index *)
  mutable first_run : int list;  (* blocks by first execution, latest first *)
  (* busy resources over a ring-buffer window of cycles *)
  busy : Scoreboard.t;
  lat : Latency.t;
  (* packing classes shared by this cycle's issue group, when open *)
  pack : Bitset.t;
  mutable pack_open : bool;
  cache_tags : int array;  (* -1 = invalid *)
  mutable load_addr : int;  (* address the executing load used *)
  (* %aux override of the last writer looked up by [operands_ready] *)
  mutable aux_writer : int;
  mutable aux_lat : int;  (* [min_int] = no override *)
  halt_index : int;
}

(* One code word decoded once per run: operands resolved to byte offsets
   and access kinds, semantics compiled to a closure. *)
and dinst = {
  d_inst : sinst;
  d_reads : int array;  (* flat byte ranges [lo; hi; ...] of every register read *)
  d_aux : bool;  (* consumer of some %aux rule *)
  d_exec : state -> unit;
}

(* A fault found while decoding (unknown name or builtin, bad operand
   index, a register outside its bank) stays a runtime failure of the
   instruction that hits it: the closure raises when, and if, it runs. *)
let defer f = try f () with e -> fun _ -> raise e

let find_named st name =
  match Model.find_class st.model name with
  | Some c -> Locs.named_reg st.model c.Model.c_id
  | None -> fail "unknown register name %S in semantics" name

(* a register's flat byte range *)
let reg_range st r =
  let bank, off, size = Model.reg_bytes st.model r in
  if off < 0 || off + size > Bytes.length st.banks.(bank) then
    invalid_arg "index out of bounds";
  (st.bank_base.(bank) + off, st.bank_base.(bank) + off + size - 1)

let reg_reader st (r : Model.reg) : state -> value =
  let get = getter (access_of_class st.model r.Model.cls) in
  let bank, off, _ = Model.reg_bytes st.model r in
  let b = st.banks.(bank) in
  fun _ -> get b off

let read_reg st r = reg_reader st r st

let write_reg st (r : Model.reg) v =
  let bank, off, _ = Model.reg_bytes st.model r in
  setter (access_of_class st.model r.Model.cls) st.banks.(bank) off v

(* a register write that also records its ready cycle and writer *)
let reg_writer st (r : Model.reg) latency : state -> value -> unit =
  let set = setter (access_of_class st.model r.Model.cls) in
  let bank, off, _ = Model.reg_bytes st.model r in
  let b = st.banks.(bank) in
  let lo, hi = reg_range st r in
  let lat = max 1 latency in
  fun st v ->
    set b off v;
    for i = lo to hi do
      st.ready.(i) <- st.cycle + lat;
      st.writer.(i) <- st.pc;
      st.wcycle.(i) <- st.cycle
    done

(* flat byte ranges [lo; hi; ...] of registers *)
let ranges st regs =
  Array.of_list
    (List.concat_map (fun r -> let lo, hi = reg_range st r in [ lo; hi ]) regs)

let sregs (si : sinst) positions =
  List.filter_map
    (fun pos -> match si.s_ops.(pos) with Sreg r -> Some r | Simm _ | Slab _ -> None)
    positions

(* ------------------------------------------------------------------ *)
(* Semantics, compiled once per code word                              *)
(* ------------------------------------------------------------------ *)

let binop op a b =
  match (a, b) with
  | Vi x, Vi y -> (
      let s = Arith32.sext32 in
      match op with
      | Ast.Add -> Vi (s (x + y))
      | Ast.Sub -> Vi (s (x - y))
      | Ast.Mul -> Vi (s (x * y))
      | Ast.Div -> if y = 0 then fail "division by zero" else Vi (s (x / y))
      | Ast.Rem -> if y = 0 then fail "modulo by zero" else Vi (s (x mod y))
      | Ast.And -> Vi (x land y)
      | Ast.Or -> Vi (x lor y)
      | Ast.Xor -> Vi (x lxor y)
      | Ast.Shl -> Vi (s (x lsl (y land 31)))
      | Ast.Sar -> Vi (s (x asr (y land 31)))
      | Ast.Shr -> Vi (s (Arith32.mask32 x lsr (y land 31)))
      | Ast.Cmp -> Vi (compare x y))
  | (Vf _, _ | _, Vf _) -> (
      let x = vf a and y = vf b in
      match op with
      | Ast.Add -> Vf (x +. y)
      | Ast.Sub -> Vf (x -. y)
      | Ast.Mul -> Vf (x *. y)
      | Ast.Div -> Vf (x /. y)
      | Ast.Cmp -> Vi (compare x y)
      | Ast.Rem | Ast.And | Ast.Or | Ast.Xor | Ast.Shl | Ast.Sar | Ast.Shr ->
          fail "float operand on an integer operation")

let relop op a b =
  let c =
    match (a, b) with
    | Vi x, Vi y -> compare x y
    | _ -> compare (vf a) (vf b)
  in
  let r =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.Ltu | Ast.Geu -> fail "unsigned comparisons are not modeled"
  in
  Vi (if r then 1 else 0)

let unop op v =
  match (op, v) with
  | Ast.Neg, Vi n -> Vi (Arith32.sext32 (-n))
  | Ast.Neg, Vf f -> Vf (-.f)
  | Ast.Bnot, _ -> Vi (Arith32.sext32 (lnot (vi v)))
  | Ast.Lnot, _ -> Vi (if vi v = 0 then 1 else 0)

let cvt vt v =
  match vt with
  | Ast.Char ->
      let m = vi v land 0xFF in
      Vi (if m land 0x80 <> 0 then m - 0x100 else m)
  | Ast.Short ->
      let m = vi v land 0xFFFF in
      Vi (if m land 0x8000 <> 0 then m - 0x10000 else m)
  | Ast.Int | Ast.Long -> Vi (Arith32.sext32 (vi v))
  | Ast.Float -> Vf (Int32.float_of_bits (Int32.bits_of_float (vf v)))
  | Ast.Double -> Vf (vf v)

(* A binary operator evaluates its right operand first: when both fail,
   which [Sim_error] an instruction raises depends on this order. *)
let rec expr st (si : sinst) (e : Ast.expr) : state -> value =
  match e with
  | Ast.Eint n ->
      let v = Vi n in
      fun _ -> v
  | Ast.Eflt f ->
      let v = Vf f in
      fun _ -> v
  | Ast.Eopnd n ->
      defer (fun () ->
          match si.s_ops.(n - 1) with
          | Simm v | Slab v -> expr st si (Ast.Eint v)
          | Sreg r -> reg_reader st r)
  | Ast.Ename name -> defer (fun () -> reg_reader st (find_named st name))
  | Ast.Emem (_, a) -> load st si ~capture:false a
  | Ast.Ebinop (op, a, b) ->
      let a = expr st si a and b = expr st si b in
      fun s ->
        let y = b s in
        binop op (a s) y
  | Ast.Erel (op, a, b) ->
      let a = expr st si a and b = expr st si b in
      fun s ->
        let y = b s in
        relop op (a s) y
  | Ast.Eunop (op, a) ->
      let a = expr st si a in
      fun s -> unop op (a s)
  | Ast.Ecvt (vt, a) ->
      let a = expr st si a in
      fun s -> cvt vt (a s)
  | Ast.Ebuiltin ("high", [ a ]) ->
      let a = expr st si a in
      fun s -> Vi ((Arith32.mask32 (vi (a s)) lsr 16) land 0xFFFF)
  | Ast.Ebuiltin ("low", [ a ]) ->
      let a = expr st si a in
      fun s -> Vi (vi (a s) land 0xFFFF)
  | Ast.Ebuiltin ("eval", [ a ]) -> expr st si a
  | Ast.Ebuiltin (f, _) -> fun _ -> fail "unknown builtin %S in semantics" f

(* [capture] records the address for the data-cache probe: the address
   the load used, not one recomputed after its destination is written *)
and load st si ~capture a =
  let a = expr st si a in
  let k = load_kind st.model si.s_op in
  let get = getter k in
  fun s ->
    let addr = vi (a s) in
    if capture then s.load_addr <- addr;
    if addr < 0 || addr + k.a_width > Bytes.length s.mem then
      fail "load out of bounds at %d (pc=%d)" addr s.pc;
    get s.mem addr

let branch st target slots =
  st.br_target <- target;
  st.br_slots <- slots

let do_builtin st name =
  let cwvm = st.model.Model.cwvm in
  let arg vt =
    match
      List.find_opt (fun (t, _, n) -> t = vt && n = 1) cwvm.Model.v_args
    with
    | Some (_, r, _) -> read_reg st r
    | None -> fail "CWVM has no first %s argument register" (Ast.vtype_to_string vt)
  in
  match name with
  | "print_int" ->
      Buffer.add_string st.out (string_of_int (vi (arg Ast.Int)));
      Buffer.add_char st.out '\n'
  | "print_char" -> Buffer.add_char st.out (Char.chr (vi (arg Ast.Int) land 0xFF))
  | "print_double" ->
      Buffer.add_string st.out (Printf.sprintf "%.6f\n" (vf (arg Ast.Double)))
  | other -> fail "unknown builtin %S" other

(* a control-transfer operand: a label, an immediate or a register *)
let target st (si : sinst) n : state -> int =
  match si.s_ops.(n - 1) with
  | Slab t | Simm t -> fun _ -> t
  | Sreg r ->
      let rd = reg_reader st r in
      fun s -> vi (rd s)

(* [probe] marks the load statement whose address the cache probes *)
let stmt st (si : sinst) ~probe (s : Ast.stmt) : state -> unit =
  let op = si.s_op in
  let slots = abs op.Model.i_slots in
  match s with
  | Ast.Snop -> fun _ -> ()
  | Ast.Sassign (lhs, e) -> (
      let e =
        match e with
        | Ast.Emem (_, a) when probe -> load st si ~capture:true a
        | e -> expr st si e
      in
      match lhs with
      | Ast.Lopnd n ->
          let w =
            defer (fun () ->
                match si.s_ops.(n - 1) with
                | Sreg r -> reg_writer st r op.Model.i_latency
                | Simm _ | Slab _ -> fail "assignment to a non-register operand")
          in
          fun s -> w s (e s)
      | Ast.Lname name ->
          let w =
            defer (fun () -> reg_writer st (find_named st name) op.Model.i_latency)
          in
          fun s -> w s (e s)
      | Ast.Lmem (_, a) ->
          let a = expr st si a in
          let k = store_kind st.model si.s_op in
          let set = setter k in
          fun s ->
            let v = e s in
            let addr = vi (a s) in
            if addr < 0 || addr + k.a_width > Bytes.length s.mem then
              fail "store out of bounds at %d (pc=%d)" addr s.pc;
            set s.mem addr v)
  | Ast.Sifgoto (c, n) ->
      let c = expr st si c and t = defer (fun () -> target st si n) in
      fun s -> if vi (c s) <> 0 then branch s (t s) slots
  | Ast.Sgoto n ->
      let t = defer (fun () -> target st si n) in
      fun s -> branch s (t s) slots
  | Ast.Scall n ->
      let t = defer (fun () -> target st si n) in
      let ra =
        defer (fun () ->
            reg_writer st st.model.Model.cwvm.Model.v_retaddr op.Model.i_latency)
      in
      fun s ->
        let target = t s in
        ra s (Vi (s.pc + 1 + slots));
        (match Hashtbl.find_opt s.builtin_at target with
        | Some name -> do_builtin s name
        | None -> branch s target slots)
  | Ast.Sret ->
      let ra = defer (fun () -> reg_reader st st.model.Model.cwvm.Model.v_retaddr) in
      fun s -> branch s (vi (ra s)) slots

let decode st (si : sinst) : dinst =
  let op = si.s_op in
  (* loads pay the cache penalty on their destinations, probed at the
     address of the first statement that loads *)
  let probe_at =
    match st.cfg.cache with
    | Some _ when op.Model.i_loads ->
        List.find_index
          (function Ast.Sassign (_, Ast.Emem _) -> true | _ -> false)
          op.Model.i_sem
    | Some _ | None -> None
  in
  let sem =
    match
      List.mapi (fun k s -> stmt st si ~probe:(Some k = probe_at) s) op.Model.i_sem
    with
    | [] -> fun _ -> ()
    | f :: fs -> List.fold_left (fun k g s -> k s; g s) f fs
  in
  let exec =
    match (st.cfg.cache, probe_at) with
    | Some c, Some _ ->
        (* direct-mapped *)
        let dests = lazy (ranges st (sregs si op.Model.i_writes)) in
        fun s ->
          sem s;
          s.nloads <- s.nloads + 1;
          let line = s.load_addr / c.line_bytes in
          let idx = line mod c.lines in
          if s.cache_tags.(idx) <> line then begin
            s.cache_tags.(idx) <- line;
            s.misses <- s.misses + 1;
            let d = if c.miss_penalty > 0 then Lazy.force dests else [||] in
            for k = 0 to (Array.length d / 2) - 1 do
              for i = d.(2 * k) to d.((2 * k) + 1) do
                s.ready.(i) <- s.ready.(i) + c.miss_penalty
              done
            done
          end
    | _ -> sem
  in
  let d_reads, d_exec =
    match
      ranges st
        (sregs si op.Model.i_reads
        @ List.map (Locs.named_reg st.model) op.Model.i_rnames)
    with
    | r -> (r, exec)
    | exception e -> ([||], fun _ -> raise e)
  in
  { d_inst = si; d_reads; d_aux = Latency.is_consumer st.lat op; d_exec }

(* ------------------------------------------------------------------ *)
(* Hazards, issue and execute                                          *)
(* ------------------------------------------------------------------ *)

(* the cycle byte [i] is ready for consumer [d]: the %aux override of its
   writer, looked up once per writer, or the writer's base latency *)
let aux_ready st (d : dinst) i =
  let w = st.writer.(i) in
  if w <> st.aux_writer then begin
    st.aux_writer <- w;
    let wd = st.code.(w).d_inst and cd = d.d_inst in
    let opnd_eq a b =
      a >= 0 && a < Array.length wd.s_ops && b >= 0 && b < Array.length cd.s_ops
      && wd.s_ops.(a) = cd.s_ops.(b)
    in
    st.aux_lat <-
      (match Latency.find st.lat ~first:wd.s_op ~second:cd.s_op ~opnd_eq with
      | Some l -> l
      | None -> min_int)
  end;
  if st.aux_lat = min_int then st.ready.(i) else st.wcycle.(i) + st.aux_lat

(* the cycle every operand of [d] is ready *)
let operands_ready st (d : dinst) =
  let r = d.d_reads in
  let req = ref 0 in
  st.aux_writer <- -1;
  for k = 0 to (Array.length r / 2) - 1 do
    for i = r.(2 * k) to r.((2 * k) + 1) do
      let t =
        if d.d_aux && st.writer.(i) >= 0 then aux_ready st d i else st.ready.(i)
      in
      if t > !req then req := t
    done
  done;
  !req

let pack_ok st (d : dinst) =
  match d.d_inst.s_op.Model.i_class with
  | None -> true
  | Some k -> (not st.pack_open) || not (Bitset.inter_empty st.pack k)

let render st (si : sinst) =
  let b = Buffer.create 32 in
  Buffer.add_string b si.s_op.Model.i_name;
  Array.iteri
    (fun k o ->
      Buffer.add_string b (if k = 0 then " " else ", ");
      match o with
      | Simm v -> Buffer.add_string b (string_of_int v)
      | Slab t -> Buffer.add_string b (Printf.sprintf "@%d" t)
      | Sreg r ->
          Buffer.add_string b (Format.asprintf "%a" (Model.pp_reg st.model) r))
    si.s_ops;
  Buffer.contents b

let issue st (d : dinst) =
  if st.icount < st.cfg.trace_limit then
    st.trace_acc <- (st.cycle, render st d.d_inst) :: st.trace_acc;
  (match d.d_inst.s_label with
  | Some _ ->
      if st.freq.(st.pc) = 0 then st.first_run <- st.pc :: st.first_run;
      st.freq.(st.pc) <- st.freq.(st.pc) + 1
  | None -> ());
  Scoreboard.reserve st.busy ~cycle:st.cycle d.d_inst.s_op;
  (match d.d_inst.s_op.Model.i_class with
  | Some k ->
      if st.pack_open then Bitset.inter_into ~dst:st.pack k
      else begin
        Bitset.clear st.pack;
        Bitset.union_into ~dst:st.pack k;
        st.pack_open <- true
      end
  | None -> ());
  d.d_exec st;
  st.icount <- st.icount + 1;
  (* advance pc honouring any pending redirect and its delay slots *)
  if st.br_slots = 0 then begin
    st.br_slots <- -1;
    if st.br_target = st.halt_index then st.halted <- true
    else st.pc <- st.br_target
  end
  else begin
    if st.br_slots > 0 then st.br_slots <- st.br_slots - 1;
    st.pc <- st.pc + 1
  end;
  if (not st.halted) && st.pc >= Array.length st.code then
    fail "program counter fell off the end of the code"

let run ?(config = default_config) (prog : Mir.prog) : result =
  let model = prog.Mir.p_model in
  let loaded = load_program prog config.memory_size in
  let banks = Array.map (fun sz -> Bytes.make (max 8 sz) '\000') model.Model.banks in
  let nbytes = ref 0 in
  let bank_base =
    Array.map
      (fun b ->
        nbytes := !nbytes + Bytes.length b;
        !nbytes - Bytes.length b)
      banks
  in
  let st =
    {
      model;
      cfg = config;
      code = [||];
      builtin_at = loaded.builtin_at;
      banks;
      bank_base;
      ready = Array.make !nbytes 0;
      writer = Array.make !nbytes (-1);
      wcycle = Array.make !nbytes 0;
      mem = loaded.data;
      out = Buffer.create 256;
      pc = loaded.entry;
      cycle = 0; icount = 0; nloads = 0; misses = 0;
      br_target = 0; br_slots = -1; halted = false; trace_acc = [];
      freq = Array.make (Array.length loaded.code) 0;
      first_run = [];
      busy = Scoreboard.create model;
      lat = Latency.for_model model;
      (* packing classes are sets of long-instruction-word elements *)
      pack = Bitset.create (Array.length model.Model.elements);
      pack_open = false;
      cache_tags =
        (match config.cache with
        | Some c -> Array.make c.lines (-1)
        | None -> [||]);
      load_addr = 0; aux_writer = -1; aux_lat = min_int;
      halt_index = Array.length loaded.code;
    }
  in
  st.code <- Array.map (decode st) loaded.code;
  (* hard registers hold their wired values; sp starts at the top *)
  List.iter (fun (r, v) -> write_reg st r (Vi v)) model.Model.cwvm.Model.v_hard;
  write_reg st model.Model.cwvm.Model.v_sp (Vi (config.memory_size - 64));
  (* return from main halts *)
  write_reg st model.Model.cwvm.Model.v_retaddr (Vi st.halt_index);
  (* Operands that are ready stay ready while the pc stalls, since nothing
     issues: a data stall jumps straight to the cycle the last operand is
     ready, and structural or packing conflicts then wait cycle by cycle
     without re-checking the operands. *)
  while not st.halted do
    if st.icount > config.fuel then fail "out of fuel after %d instructions" st.icount;
    let d = st.code.(st.pc) in
    let ready = operands_ready st d in
    if ready > st.cycle then begin
      st.cycle <- ready;
      st.pack_open <- false
    end;
    let op = d.d_inst.s_op in
    while Scoreboard.conflict st.busy ~cycle:st.cycle op || not (pack_ok st d) do
      st.cycle <- st.cycle + 1;
      st.pack_open <- false
    done;
    issue st d
  done;
  let result_reg =
    List.find_map
      (fun (r, vt) ->
        match vt with Ast.Int | Ast.Long -> Some r | _ -> None)
      model.Model.cwvm.Model.v_results
  in
  (* labels enter the table in first-execution order, the order a table
     bumped on every block entry fills in, so its fold order is the same *)
  let block_freq = Hashtbl.create 64 in
  List.iter
    (fun pc ->
      let l = Option.get loaded.code.(pc).s_label in
      Hashtbl.replace block_freq l
        (st.freq.(pc) + Option.value ~default:0 (Hashtbl.find_opt block_freq l)))
    (List.rev st.first_run);
  {
    output = Buffer.contents st.out;
    return_value = (match result_reg with Some r -> vi (read_reg st r) | None -> 0);
    cycles = st.cycle + 1;
    instructions = st.icount;
    block_freq;
    loads = st.nloads;
    cache_misses = st.misses;
    trace = List.rev st.trace_acc;
  }
