(* Spans recorded around the benchmark's calls into each layer of the
   compiler and simulator. Spans are kept in memory while the run
   measures and written out once, when the run ends. With tracing off,
   [span] is a plain call and records nothing. *)

type span = {
  id : int;
  parent : int;  (* -1 for an operation's root span *)
  op : int;  (* shared by every span of one operation *)
  name : string;
  start : float;
  stop : float;
}

let on = ref false

let spans = ref []  (* newest first *)

let count = ref 0

(* the open spans, innermost first, as (id, start) *)
let stack = ref []

let op_id = ref 0

let push_closed ~id ~parent ~name start stop =
  spans := { id; parent; op = !op_id; name; start; stop } :: !spans

let span name f =
  if not !on then f ()
  else begin
    let id = !count in
    incr count;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let start = Mclock.wall () in
    stack := (id, start) :: !stack;
    Fun.protect f ~finally:(fun () ->
        let stop = Mclock.wall () in
        stack := List.tl !stack;
        push_closed ~id ~parent ~name start stop)
  end

(* [root op name f] is [span name f] as the root span of operation [op]. *)
let root op name f =
  op_id := op;
  span name f

(* Lay a {!Profile.t}'s per-pass entries out as consecutive children of the
   innermost open span, from its start. The profile keeps one summed time
   per entry name, not start times, so the children's order is the
   profile's first-recorded order and their placement is nominal; their
   durations are as measured. [layer] names the span of each entry. *)
let profile_children ~layer (p : Profile.t) =
  if !on then
    match !stack with
    | [] -> ()
    | (parent, start) :: _ ->
        ignore
          (List.fold_left
             (fun t (e : Profile.entry) ->
               let id = !count in
               incr count;
               let stop = t +. e.Profile.e_wall in
               push_closed ~id ~parent ~name:(layer e.Profile.e_name) t stop;
               stop)
             start (Profile.entries p))

(* Spans recorded so far; [since mark] are those recorded after [mark]
   spans had been, i.e. whole closed subtrees. *)
let mark () = List.length !spans

let since m =
  let n = List.length !spans - m in
  List.filteri (fun i _ -> i < n) !spans

(* Per span name over [ss]: the summed self time (each span's duration
   minus the part its children in [ss] cover) and the summed duration. *)
let summary ss =
  let self = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace self s.id (s.stop -. s.start)) ss;
  List.iter
    (fun s ->
      match Hashtbl.find_opt self s.parent with
      | Some v -> Hashtbl.replace self s.parent (v -. (s.stop -. s.start))
      | None -> ())
    ss;
  let by_name = Hashtbl.create 64 and total = Hashtbl.create 64 in
  let add h k v =
    Hashtbl.replace h k (v +. Option.value ~default:0.0 (Hashtbl.find_opt h k))
  in
  List.iter
    (fun s ->
      add by_name s.name (Hashtbl.find self s.id);
      add total s.name (s.stop -. s.start))
    ss;
  (by_name, total)

(* Write every span in the Chrome trace-event format, so the file opens in
   Perfetto or chrome://tracing; operations become threads. *)
let write file =
  let oc = open_out file in
  let t0 =
    List.fold_left (fun m s -> Float.min m s.start) infinity !spans
  in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name s.op
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
