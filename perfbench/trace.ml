(* In-memory spans and counters for the traced run.

   Spans nest as iteration > op > layer call. Each records its monotonic
   start and end, its parent, the op it belongs to and the bytes allocated
   while it was open. Counters add a value to a name for the current
   iteration. With tracing disabled [span] is a direct call and [count]
   does nothing, so the untraced run pays one branch per layer call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type kind = Iteration | Op | Layer

let kind_name = function
  | Iteration -> "iteration"
  | Op -> "op"
  | Layer -> "layer"

type span = {
  id : int;
  name : string;
  kind : kind;
  start : float;
  stop : float;
  parent : int;  (** -1 at the top. *)
  op : int;  (** Id of the enclosing op span, -1 outside any op. *)
  iteration : int;  (** Index the runner set with {!set_iteration}. *)
  alloc_bytes : float;
}

let enabled = ref false

let next_id = ref 0

let iteration = ref 0

(* Open spans, innermost first: (id, op id). *)
let stack : (int * int) list ref = ref []

let closed : span list ref = ref []

let counters : (int * string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  next_id := 0;
  stack := [];
  closed := [];
  Hashtbl.reset counters

let set_iteration i = iteration := i

let span kind name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, outer_op =
      match !stack with [] -> (-1, -1) | (p, o) :: _ -> (p, o)
    in
    let op = if kind = Op then id else outer_op in
    stack := (id, op) :: !stack;
    let a0 = Gc.allocated_bytes () in
    let start = now () in
    let finish () =
      let stop = now () in
      let alloc_bytes = Gc.allocated_bytes () -. a0 in
      stack := List.tl !stack;
      closed :=
        {
          id;
          name;
          kind;
          start;
          stop;
          parent;
          op;
          iteration = !iteration;
          alloc_bytes;
        }
        :: !closed
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let layer name f = span Layer name f

let count name v =
  if !enabled then begin
    let key = (!iteration, name) in
    let prev = Option.value ~default:0. (Hashtbl.find_opt counters key) in
    Hashtbl.replace counters key (prev +. v)
  end

let spans () = List.rev !closed

let duration s = s.stop -. s.start

(* Self time and self allocation: a span's own figures minus what its
   direct children account for. *)
let self_figures spans =
  let child_time = Hashtbl.create 256 and child_alloc = Hashtbl.create 256 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_time s.parent (duration s);
        add child_alloc s.parent s.alloc_bytes
      end)
    spans;
  let get tbl id = Option.value ~default:0. (Hashtbl.find_opt tbl id) in
  List.map
    (fun s ->
      ( s,
        duration s -. get child_time s.id,
        s.alloc_bytes -. get child_alloc s.id ))
    spans

let counter ~iteration name =
  Option.value ~default:0. (Hashtbl.find_opt counters (iteration, name))

let to_json spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("name", Json.Str s.name);
             ("kind", Json.Str (kind_name s.kind));
             ("start", Json.Num s.start);
             ("end", Json.Num s.stop);
             ("parent", Json.Num (float_of_int s.parent));
             ("op", Json.Num (float_of_int s.op));
             ("iteration", Json.Num (float_of_int s.iteration));
             ("alloc_bytes", Json.Num s.alloc_bytes);
           ])
       spans)
