(* Intrusive singly-linked segments: one cell allocated per callback at
   enqueue time, then only pointer surgery — [advance] relinks cells from
   the waiting segment to the done segment, and [drain] pops and invokes
   without ever materialising an intermediate list. Both segment lengths
   are maintained counters, so the invoker learns its batch size without
   a [List.length] walk. A cell carries its callback's argument, so a
   caller with one function per CPU (SLUB's object release) queues a
   5-word cell per callback instead of a cell plus a fresh closure: the
   cells are long-lived (they wait out a grace period and the throttled
   drain), so every word saved is a word the GC does not promote. *)

type cell =
  | Cell : {
      cookie : int;
      fn : 'a -> unit;
      arg : 'a;
      mutable next : cell;
    }
      -> cell

(* Self-referential terminator: [next c == nil] marks the tail. *)
let rec nil = Cell { cookie = min_int; fn = ignore; arg = (); next = nil }

let cookie (Cell c) = c.cookie
let next (Cell c) = c.next
let set_next (Cell c) n = c.next <- n

type t = {
  mutable wait_head : cell;
  mutable wait_tail : cell;
  mutable wait_n : int;
  mutable done_head : cell;
  mutable done_tail : cell;
  mutable done_n : int;
  mutable last_cookie : int;
}

let create () =
  {
    wait_head = nil;
    wait_tail = nil;
    wait_n = 0;
    done_head = nil;
    done_tail = nil;
    done_n = 0;
    last_cookie = min_int;
  }

let enqueue t ~cookie fn arg =
  assert (cookie >= t.last_cookie);
  t.last_cookie <- cookie;
  let c = Cell { cookie; fn; arg; next = nil } in
  if t.wait_n = 0 then t.wait_head <- c else set_next t.wait_tail c;
  t.wait_tail <- c;
  t.wait_n <- t.wait_n + 1

let advance t ~completed =
  let moved = ref 0 in
  while t.wait_n > 0 && cookie t.wait_head <= completed do
    let c = t.wait_head in
    t.wait_head <- next c;
    t.wait_n <- t.wait_n - 1;
    if t.wait_n = 0 then t.wait_tail <- nil;
    set_next c nil;
    if t.done_n = 0 then t.done_head <- c else set_next t.done_tail c;
    t.done_tail <- c;
    t.done_n <- t.done_n + 1;
    incr moved
  done;
  !moved

let drain t ~max =
  (* Fix the batch upfront: callbacks that become ready while the batch
     runs wait for the next pass, exactly as when batches were removed
     wholesale before invocation. *)
  let n = if max < t.done_n then max else t.done_n in
  for _ = 1 to n do
    let (Cell c as cell) = t.done_head in
    t.done_head <- next cell;
    t.done_n <- t.done_n - 1;
    if t.done_n = 0 then t.done_tail <- nil;
    c.fn c.arg
  done;
  n

let waiting t = t.wait_n
let ready t = t.done_n
let total t = t.wait_n + t.done_n

let next_cookie t = if t.wait_n = 0 then None else Some (cookie t.wait_head)
