(* A ring: [arr] has a power-of-two capacity ([||] until the first push)
   and holds the elements at [head], [head + 1], ... [head + n - 1]
   (mod capacity). Vacated slots keep their old element until
   overwritten; the driver's objects outlive the run anyway. *)
type 'a t = { mutable arr : 'a array; mutable head : int; mutable n : int }

let create () = { arr = [||]; head = 0; n = 0 }
let length d = d.n
let is_empty d = d.n = 0
let mask d = Array.length d.arr - 1

(* Make room for one more, using [x] to fill new slots. *)
let reserve d x =
  let cap = Array.length d.arr in
  if d.n = cap then begin
    let b = Array.make (max 8 (2 * cap)) x in
    for i = 0 to d.n - 1 do
      b.(i) <- d.arr.((d.head + i) land (cap - 1))
    done;
    d.arr <- b;
    d.head <- 0
  end

let push_back d x =
  reserve d x;
  d.arr.((d.head + d.n) land mask d) <- x;
  d.n <- d.n + 1

let push_front d x =
  reserve d x;
  d.head <- (d.head - 1) land mask d;
  d.arr.(d.head) <- x;
  d.n <- d.n + 1

let pop_front_exn d =
  if d.n = 0 then invalid_arg "Deque.pop_front_exn: empty";
  let x = d.arr.(d.head) in
  d.head <- (d.head + 1) land mask d;
  d.n <- d.n - 1;
  x

let pop_back_exn d =
  if d.n = 0 then invalid_arg "Deque.pop_back_exn: empty";
  d.n <- d.n - 1;
  d.arr.((d.head + d.n) land mask d)

let pop_front d = if d.n = 0 then None else Some (pop_front_exn d)
let pop_back d = if d.n = 0 then None else Some (pop_back_exn d)
let peek_front d = if d.n = 0 then None else Some d.arr.(d.head)

let peek_back d =
  if d.n = 0 then None else Some d.arr.((d.head + d.n - 1) land mask d)

let iter f d =
  for i = 0 to d.n - 1 do
    f d.arr.((d.head + i) land mask d)
  done

let to_list d = List.init d.n (fun i -> d.arr.((d.head + i) land mask d))

let clear d =
  d.head <- 0;
  d.n <- 0
