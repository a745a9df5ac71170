(** In-order pipeline simulator driven entirely by the machine model.

    Executes MIR programs after register allocation and frame layout: all
    operands must be physical registers, immediates, symbols or labels.
    Instruction behaviour is the Maril semantics expression; instruction
    timing is the same hazard model the scheduler uses — per-byte register
    scoreboard with %aux overrides for latencies, composite resource
    vectors for structural hazards, packing classes for long-instruction
    words, in-order multiple issue, branch delay slots.

    {b Decode once.} [run] lays the program out and then decodes every
    code word once: register operands become byte offsets and access kinds
    in one flat numbering of the register banks, named registers are
    looked up once, and the semantics become a closure that the issue
    loop calls. A binary operator evaluates its right operand first, and
    a fault the decoder finds (an unknown name or builtin, a bad operand
    index) is raised by the instruction that hits it, when it runs.

    {b Two stall invariants.} While the program counter stalls nothing
    issues, so operands that are ready stay ready. A data stall therefore
    jumps straight to the cycle the last operand is ready, and structural
    or packing conflicts then wait cycle by cycle without checking the
    operands again. The resource ring is {!Scoreboard}'s, one word per
    cycle on every built-in target, and %aux overrides come from
    {!Latency}'s array table, looked up once per producer.

    The optional direct-mapped data cache adds a miss penalty to load
    latencies, probed at the address each load used; scheduler estimates
    ignore it, which reproduces the paper's actual-versus-estimated gap of
    Table 4. *)

type cache_config = { lines : int; line_bytes : int; miss_penalty : int }

type config = {
  memory_size : int;
  fuel : int;  (** maximum instructions to execute before giving up *)
  cache : cache_config option;
  trace_limit : int;
      (** record the first N issued instructions with their issue cycles
          (0 = off); used to display multiple instruction issue *)
}

val default_config : config

type result = {
  output : string;  (** bytes printed through the builtins *)
  return_value : int;  (** integer result register when main returns *)
  cycles : int;
  instructions : int;  (** instructions issued, nops included *)
  block_freq : (string, int) Hashtbl.t;  (** executions per block label *)
  loads : int;
  cache_misses : int;
  trace : (int * string) list;
      (** (cycle, instruction) pairs for the first [trace_limit] issues *)
}

exception Sim_error of string

val run : ?config:config -> Mir.prog -> result
(** Load the program (globals into a data segment, functions into a flat
    code segment), start at [main] with the stack pointer at the top of
    memory, and simulate until main returns. *)
