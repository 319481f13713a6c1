(* Latent-object bookkeeping bucketed by grace-period cookie.

   Before this structure existed, a slab's latent objects lived on one
   list and every grace-period completion ran [List.partition] over all
   of them — O(latent) per harvest even when nothing was ripe. Bucketing
   by cookie (the epoch-bag layout of DEBRA-style reclaimers) makes a
   harvest pop whole ripe buckets off the front: O(ripe objects +
   buckets visited), never touching unripe cookies.

   Two variants:

   - {!t}: arbitrary cookie arrival order (slab latent lists receive
     objects demoted from per-CPU latent caches, whose cookies
     interleave). Buckets are kept sorted ascending by cookie; each
     element carries an insertion sequence number so a harvest can
     reproduce, exactly, the newest-first order the old single list
     produced — object identity decides cold-touch costs downstream, so
     reclaim order must not drift.

   - {!Fifo}: cookie-monotone arrival (per-CPU latent caches, filled in
     snapshot order). The payload deque is untouched; a run-length
     index of (cookie, count) pairs rides along so ripeness queries
     — "how many of these are past the horizon?" — cost O(distinct
     cookies), not O(objects). *)

(* A bucket's payload lives in a pair of parallel arrays in insertion
   (ascending-sequence) order: no per-element box, and the newest-first
   harvest is a backwards scan / array-indexed merge. Buckets are
   recycled: an emptied one keeps its arrays and waits for the next new
   cookie, so steady-state pushes and harvests allocate nothing. *)
type 'a bucket = {
  mutable cookie : int;
  mutable vals : 'a array;  (* insertion order; capacity doubles *)
  mutable seqs : int array;  (* parallel: global insertion sequence *)
  mutable bn : int;
  mutable cur : int;  (* harvest cursor: next index to emit, downwards *)
}

(* [bs.(0 .. nb-1)] are the live buckets, ascending by cookie: pushes
   land at the newest end (cookies are issued monotonically, so the
   common case is append), harvests take a prefix. [bs.(nb .. made-1)]
   are emptied buckets kept for reuse; slots past [made] are unused. *)
type 'a t = {
  mutable bs : 'a bucket array;
  mutable nb : int;
  mutable made : int;
  mutable next_seq : int;
  mutable len : int;
  mutable work : int;
}

let create () =
  { bs = [||]; nb = 0; made = 0; next_seq = 0; len = 0; work = 0 }

let length t = t.len
let work t = t.work

let bucket_add b ~seq v =
  let cap = Array.length b.vals in
  if b.bn = cap then begin
    let nv = Array.make (2 * cap) v and ns = Array.make (2 * cap) 0 in
    Array.blit b.vals 0 nv 0 cap;
    Array.blit b.seqs 0 ns 0 cap;
    b.vals <- nv;
    b.seqs <- ns
  end;
  b.vals.(b.bn) <- v;
  b.seqs.(b.bn) <- seq;
  b.bn <- b.bn + 1

(* An empty bucket for [cookie] at slot [nb], not yet counted live:
   a recycled one when there is a spare, else a new one. *)
let spare_bucket t ~cookie v =
  if t.nb < t.made then begin
    let b = t.bs.(t.nb) in
    b.cookie <- cookie;
    b.bn <- 0;
    b
  end
  else begin
    let b =
      { cookie; vals = Array.make 4 v; seqs = Array.make 4 0; bn = 0; cur = 0 }
    in
    let cap = Array.length t.bs in
    if t.made = cap then begin
      let bs = Array.make (max 4 (2 * cap)) b in
      Array.blit t.bs 0 bs 0 cap;
      t.bs <- bs
    end;
    t.bs.(t.made) <- b;
    t.made <- t.made + 1;
    b
  end

let push t ~cookie v =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  let nb = t.nb in
  if nb > 0 && t.bs.(nb - 1).cookie = cookie then
    bucket_add t.bs.(nb - 1) ~seq v
  else if nb = 0 || cookie > t.bs.(nb - 1).cookie then begin
    bucket_add (spare_bucket t ~cookie v) ~seq v;
    t.nb <- nb + 1
  end
  else begin
    (* Cookie older than the newest bucket (demotions from different
       CPUs interleave): find its place from the old end. It lies
       strictly before the newest bucket. *)
    let p = ref 0 in
    while t.bs.(!p).cookie < cookie do
      incr p
    done;
    if t.bs.(!p).cookie = cookie then bucket_add t.bs.(!p) ~seq v
    else begin
      let b = spare_bucket t ~cookie v in
      Array.blit t.bs !p t.bs (!p + 1) (nb - !p);
      t.bs.(!p) <- b;
      bucket_add b ~seq v;
      t.nb <- nb + 1
    end
  end

let reverse a lo hi =
  let i = ref lo and j = ref (hi - 1) in
  while !i < !j do
    let x = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- x;
    incr i;
    decr j
  done

let harvest t ~completed ~f =
  let k = ref 0 and n = ref 0 in
  while !k < t.nb && t.bs.(!k).cookie <= completed do
    n := !n + t.bs.(!k).bn;
    incr k
  done;
  let k = !k and n = !n in
  t.len <- t.len - n;
  t.work <- t.work + k + n;
  if k = 1 then begin
    let b = t.bs.(0) in
    for i = b.bn - 1 downto 0 do
      f b.vals.(i)
    done
  end
  else if k > 1 then begin
    (* Emit in global newest-first (descending sequence) order — exactly
       what partitioning the old single list returned. Each bucket is
       ascending by construction, so walk the tails: a k-way merge with
       tiny k, streamed straight into [f]. *)
    for i = 0 to k - 1 do
      t.bs.(i).cur <- t.bs.(i).bn - 1
    done;
    for _ = 1 to n do
      let best = ref (-1) and best_seq = ref min_int in
      for i = 0 to k - 1 do
        let b = t.bs.(i) in
        if b.cur >= 0 && b.seqs.(b.cur) > !best_seq then begin
          best := i;
          best_seq := b.seqs.(b.cur)
        end
      done;
      let b = t.bs.(!best) in
      f b.vals.(b.cur);
      b.cur <- b.cur - 1
    done
  end;
  if k > 0 then begin
    (* Rotate the emptied prefix behind the live buckets: they become
       the first spares. *)
    reverse t.bs 0 k;
    reverse t.bs k t.nb;
    reverse t.bs 0 t.nb;
    t.nb <- t.nb - k
  end;
  n

let iter f t =
  for j = 0 to t.nb - 1 do
    let b = t.bs.(j) in
    for i = b.bn - 1 downto 0 do
      f b.vals.(i)
    done
  done

module Fifo = struct
  (* Ring buffers throughout: the payload ring plus a parallel pair of
     int rings forming the run-length cookie index. Pushes and pops are
     allocation-free (the free/alloc cycle of every deferred object goes
     through here, so each box would be paid hundreds of thousands of
     times per run). Popped payload slots are left holding their old
     element; slab objects live for the whole simulation, so the stale
     reference pins nothing the GC could otherwise reclaim. *)
  type 'a t = {
    mutable arr : 'a array;  (* capacity a power of two; [||] until used *)
    mutable head : int;  (* index of the oldest element *)
    mutable n : int;
    mutable rc : int array;  (* run cookies, ring ascending front-to-back *)
    mutable rn : int array;  (* run lengths, parallel to [rc] *)
    mutable rhead : int;
    mutable rcount : int;
  }

  let create () =
    {
      arr = [||];
      head = 0;
      n = 0;
      rc = Array.make 8 0;
      rn = Array.make 8 0;
      rhead = 0;
      rcount = 0;
    }

  let length t = t.n

  let grow_items t x =
    let cap = Array.length t.arr in
    if cap = 0 then begin
      t.arr <- Array.make 16 x;
      t.head <- 0
    end
    else if t.n = cap then begin
      let b = Array.make (2 * cap) x in
      for i = 0 to t.n - 1 do
        b.(i) <- t.arr.((t.head + i) land (cap - 1))
      done;
      t.arr <- b;
      t.head <- 0
    end

  let grow_runs t =
    let cap = Array.length t.rc in
    if t.rcount = cap then begin
      let rc = Array.make (2 * cap) 0 and rn = Array.make (2 * cap) 0 in
      for i = 0 to t.rcount - 1 do
        let j = (t.rhead + i) land (cap - 1) in
        rc.(i) <- t.rc.(j);
        rn.(i) <- t.rn.(j)
      done;
      t.rc <- rc;
      t.rn <- rn;
      t.rhead <- 0
    end

  let push_back t ~cookie v =
    grow_items t v;
    t.arr.((t.head + t.n) land (Array.length t.arr - 1)) <- v;
    t.n <- t.n + 1;
    let rmask = Array.length t.rc - 1 in
    if t.rcount > 0 then begin
      let last = (t.rhead + t.rcount - 1) land rmask in
      if t.rc.(last) = cookie then t.rn.(last) <- t.rn.(last) + 1
      else begin
        assert (cookie > t.rc.(last));
        grow_runs t;
        let rmask = Array.length t.rc - 1 in
        let slot = (t.rhead + t.rcount) land rmask in
        t.rc.(slot) <- cookie;
        t.rn.(slot) <- 1;
        t.rcount <- t.rcount + 1
      end
    end
    else begin
      t.rc.(t.rhead) <- cookie;
      t.rn.(t.rhead) <- 1;
      t.rcount <- 1
    end

  let pop_front_ripe t ~completed =
    if t.rcount = 0 || t.rc.(t.rhead) > completed then None
    else begin
      t.rn.(t.rhead) <- t.rn.(t.rhead) - 1;
      if t.rn.(t.rhead) = 0 then begin
        t.rhead <- (t.rhead + 1) land (Array.length t.rc - 1);
        t.rcount <- t.rcount - 1
      end;
      let v = t.arr.(t.head) in
      t.head <- (t.head + 1) land (Array.length t.arr - 1);
      t.n <- t.n - 1;
      Some v
    end

  let pop_back_exn t =
    if t.n = 0 then invalid_arg "Latq.Fifo.pop_back_exn: empty";
    let v = t.arr.((t.head + t.n - 1) land (Array.length t.arr - 1)) in
    t.n <- t.n - 1;
    let last = (t.rhead + t.rcount - 1) land (Array.length t.rc - 1) in
    t.rn.(last) <- t.rn.(last) - 1;
    if t.rn.(last) = 0 then t.rcount <- t.rcount - 1;
    v

  let pop_back t = if t.n = 0 then None else Some (pop_back_exn t)

  (* Move up to [limit] ripe elements out, oldest first, a whole run at a
     time: the merge loop's per-object [Some] and run peeks disappear. *)
  let merge_ripe t ~completed ~limit ~f x =
    let moved = ref 0 in
    let continue = ref true in
    while
      !continue && !moved < limit && t.rcount > 0
      && t.rc.(t.rhead) <= completed
    do
      let k = min t.rn.(t.rhead) (limit - !moved) in
      let mask = Array.length t.arr - 1 in
      for _ = 1 to k do
        f x t.arr.(t.head);
        t.head <- (t.head + 1) land mask
      done;
      t.n <- t.n - k;
      t.rn.(t.rhead) <- t.rn.(t.rhead) - k;
      if t.rn.(t.rhead) = 0 then begin
        t.rhead <- (t.rhead + 1) land (Array.length t.rc - 1);
        t.rcount <- t.rcount - 1
      end
      else continue := false;
      moved := !moved + k
    done;
    !moved

  let ripe_count t ~completed =
    (* Cookies are monotone front to back, so the matching runs are a
       prefix; counting them all is still O(distinct cookies). *)
    let rmask = Array.length t.rc - 1 in
    let n = ref 0 in
    for i = 0 to t.rcount - 1 do
      let j = (t.rhead + i) land rmask in
      if t.rc.(j) <= completed then n := !n + t.rn.(j)
    done;
    !n

  let iter f t =
    let mask = Array.length t.arr - 1 in
    for i = 0 to t.n - 1 do
      f t.arr.((t.head + i) land mask)
    done
end
