(* Minimal fork-join helpers over OCaml 5 domains.

   The repository's parallel code paths (the conflict-graph CSR builder)
   only need deterministic data-parallel loops over disjoint index
   ranges, so this module stays deliberately small: no pools, no work
   stealing.  Spawning a domain costs microseconds; callers should only
   ask for [domains > 1] on inputs large enough to amortize that. *)

let available () = Domain.recommended_domain_count ()

(* One knob for every ?domains:0 auto heuristic in the repository: a
   Domain.spawn/join round trip costs a few hundred microseconds, so an
   extra domain only pays for itself once it gets several thousand units
   of bulk work (one conflict-graph triple, one CSR row).  With the
   sharded-cursor scheduler below the per-chunk cost is a single
   uncontended fetch-and-add, which moved the break-even down from 8192
   units to 6144, set when a unit cost about a microsecond.  Measured
   since, a G_k triple costs 0.46-0.53 us sequentially with the
   sort-free build, against 0.87-1.33 us with the sorting one it
   replaced (4-uniform hypergraphs, m = 384-1536, k = 3 and 5, 2-core
   Intel Xeon VM).  The constant has not been retuned for that, so auto
   adds a domain later than the per-triple cost alone would suggest. *)
let auto_units_per_domain = 6144

let effective_domains ~requested ~units ~slices =
  let clamp d = max 1 (min d (max slices 1)) in
  if requested = 0 then
    clamp (min (available ()) (max 1 (units / auto_units_per_domain)))
  else clamp requested

(* Per-domain sharded cursors with work stealing.

   The staged CSR builds used to drain one global atomic cursor: every
   chunk claim by every domain was a fetch-and-add on the same cache
   line, which serializes at high domain counts.  Here the index range
   is split into [domains] contiguous shards, each with its own atomic
   cursor; a domain drains its own shard privately and only touches
   other shards once its own is empty, stealing chunks from the victims'
   cursors with the same fetch-and-add it would use locally.  Claims are
   therefore uncontended until the tail of the range, and the total
   overshoot is bounded by one chunk per (domain, shard) pair.

   The atomics are allocated with padding blocks between them so
   same-generation minor-heap neighbors do not share a cache line (best
   effort: the GC may re-pack them later, by which point the hot phase
   is over). *)
module Sharded_cursor = struct
  type t = {
    cursors : int Atomic.t array; (* shard d claims from cursors.(d) *)
    his : int array;              (* shard d owns [lo_d, his.(d)) *)
    chunk : int;
    domains : int;
  }

  let create ~domains ?chunk ~lo ~hi () =
    if domains < 1 then invalid_arg "Sharded_cursor.create: domains < 1";
    if hi < lo then invalid_arg "Sharded_cursor.create: hi < lo";
    let chunk =
      match chunk with
      | Some c ->
          if c < 1 then invalid_arg "Sharded_cursor.create: chunk < 1";
          c
      | None -> max 32 ((hi - lo) / (domains * 16))
    in
    let his = Array.make domains lo in
    let cursors =
      Array.init domains (fun d ->
          let len = hi - lo in
          let base = len / domains and extra = len mod domains in
          let s = lo + (d * base) + min d extra in
          let e = s + base + if d < extra then 1 else 0 in
          his.(d) <- e;
          let c = Atomic.make s in
          (* Cache-line padding between consecutively allocated atomics. *)
          ignore (Sys.opaque_identity (Array.make 8 0));
          c)
    in
    { cursors; his; chunk; domains }

  let pop t shard =
    let pos = Atomic.fetch_and_add t.cursors.(shard) t.chunk in
    let hi = t.his.(shard) in
    if pos >= hi then None else Some (pos, min hi (pos + t.chunk))

  let next t d =
    if d < 0 || d >= t.domains then invalid_arg "Sharded_cursor.next: domain";
    match pop t d with
    | Some _ as r -> r
    | None ->
        (* Own shard drained: steal, scanning victims round-robin from
           the right neighbor so thieves spread out. *)
        let rec steal i =
          if i = t.domains then None
          else
            match pop t ((d + i) mod t.domains) with
            | Some _ as r -> r
            | None -> steal (i + 1)
        in
        steal 1

  let drain t d work =
    let continue = ref true in
    while !continue do
      match next t d with
      | None -> continue := false
      | Some (lo, hi) ->
          for i = lo to hi - 1 do
            work i
          done
    done
end

(* Each body runs under its own exception trap so a raising worker can
   never leave a sibling unjoined: the spawn closures cannot throw out of
   [Domain.spawn]'s thunk, every domain is joined unconditionally, and
   the first failure (by worker index, caller's chunk 0 first) is
   re-raised with its original backtrace once all domains are back. *)
let fork_join ~domains f =
  if domains <= 1 then f 0
  else begin
    let protect d () =
      match f d with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let workers =
      Array.init (domains - 1) (fun i -> Domain.spawn (protect (i + 1)))
    in
    let failures = Array.make domains None in
    failures.(0) <- protect 0 ();
    Array.iteri (fun i d -> failures.(i + 1) <- Domain.join d) workers;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures
  end

(* Reusable cyclic barrier: generation counting makes consecutive waits
   on the same barrier safe (a fast domain re-entering the barrier
   cannot race a slow one still leaving the previous generation). *)
type barrier = {
  mutex : Mutex.t;
  cond : Condition.t;
  parties : int;
  mutable arrived : int;
  mutable generation : int;
}

let barrier_create parties =
  { mutex = Mutex.create ();
    cond = Condition.create ();
    parties;
    arrived = 0;
    generation = 0 }

let barrier_wait b =
  Mutex.lock b.mutex;
  let gen = b.generation in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    b.arrived <- 0;
    b.generation <- gen + 1;
    Condition.broadcast b.cond
  end
  else
    while b.generation = gen do
      Condition.wait b.cond b.mutex
    done;
  Mutex.unlock b.mutex

let fork_join_staged ~domains ~stage1 ~mid ~stage2 =
  if domains <= 1 then begin
    stage1 0;
    mid ();
    stage2 0
  end
  else begin
    let b = barrier_create domains in
    (* Any failure flips [abort]; later stages are skipped everywhere but
       every domain still arrives at both barriers, so a raising stage can
       never strand a sibling in [barrier_wait]. *)
    let abort = Atomic.make false in
    let run d () =
      let failure = ref None in
      let guard f =
        if not (Atomic.get abort) then
          match f () with
          | () -> ()
          | exception e ->
              Atomic.set abort true;
              if Option.is_none !failure then
                failure := Some (e, Printexc.get_raw_backtrace ())
      in
      guard (fun () -> stage1 d);
      barrier_wait b;
      if d = 0 then guard mid;
      barrier_wait b;
      guard (fun () -> stage2 d);
      !failure
    in
    let workers =
      Array.init (domains - 1) (fun i -> Domain.spawn (run (i + 1)))
    in
    let failures = Array.make domains None in
    failures.(0) <- run 0 ();
    Array.iteri (fun i d -> failures.(i + 1) <- Domain.join d) workers;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures
  end

let range ~pieces ~lo ~hi i =
  if pieces <= 0 then invalid_arg "Parallel.range: pieces must be positive";
  if i < 0 || i >= pieces then invalid_arg "Parallel.range: piece out of range";
  let len = hi - lo in
  if len <= 0 then (lo, lo)
  else begin
    let base = len / pieces and extra = len mod pieces in
    let s = lo + (i * base) + min i extra in
    let e = s + base + if i < extra then 1 else 0 in
    (s, e)
  end

let parallel_for ~domains ~lo ~hi f =
  if hi > lo then begin
    let domains = max 1 (min domains (hi - lo)) in
    fork_join ~domains (fun d ->
        let s, e = range ~pieces:domains ~lo ~hi d in
        for i = s to e - 1 do
          f i
        done)
  end
