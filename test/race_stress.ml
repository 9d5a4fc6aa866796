(* Concurrency stress harness for the TSan CI job (`make tsan`).

   Not an alcotest suite: TSan wants long, hot, genuinely concurrent
   schedules, and it reports races as runtime errors on its own — this
   binary just has to drive the shared-state machinery hard and assert
   the coarse invariants that survive any interleaving.  Four storms:

   1. Engine: more client threads than the bounded queue of 8 holds,
      so submitters park on the full queue, short deadlines served by
      a deliberately slow cooperative handler (timeout path), a drain
      shutdown racing the last submissions, and an abort
      (~drain:false) shutdown racing the parked submitters.
      Invariants: every submission gets exactly one reply, and every
      client thread returns and joins (no submitter stays parked).

   2. Parallel.fork_join: repeated disjoint-slice writes with varying
      domain counts, plus the failure path (one worker raises; all
      domains must still be joined and the exception re-raised).

   3. Telemetry: every domain hammers spans/counters/gauges while one
      concurrently exports and resets.  Invariant: counters converge to
      the exact expected total once everyone joins.

   4. Portfolio: repeated Portfolio.race runs racing a concurrently
      flipped cancel flag.  Invariant: every round ends in exactly one
      of {Canceled, certified winner}; cancellation leaks no domain
      (fork_join joins unconditionally, so a leak deadlocks or trips
      TSan) and drops no telemetry — the races_started counter accounts
      for every call.

   Exit 0 and a final "race_stress: OK" on success; any assertion
   failure, uncaught exception, or TSan report is a failure. *)

module Json = Ps_server.Json
module P = Ps_server.Protocol
module Engine = Ps_server.Engine
module Tm = Ps_util.Telemetry
module Parallel = Ps_util.Parallel

let domains = ref 4
let iters = ref 200
let quick = ref false

let speclist =
  [ ("--domains", Arg.Set_int domains, "N  worker/client parallelism (default 4)");
    ("--iters", Arg.Set_int iters, "N  iterations per storm (default 200)");
    ("--quick", Arg.Set quick, "  cut iteration counts for smoke runs") ]

(* ------------------------------------------------------------------ *)
(* Storm 1: the engine *)

(* Cooperative busy handler: [Ping] requests whose id is divisible by 3
   spin until cancelled (forcing the deadline machinery to fire), the
   rest answer immediately. *)
let stress_handler ~stats:_ ~cancel (req : P.request) =
  (match req.id with
  | Json.Int i when i mod 3 = 0 ->
      let deadline = Unix.gettimeofday () +. 0.5 in
      while (not (cancel ())) && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      if cancel () then raise Ps_core.Reduction.Canceled
  | _ -> ());
  Ok (Json.Obj [ ("pong", Json.Bool true) ])

let engine_storm ~clients ~per_client ~drain =
  let engine =
    Engine.create ~handler:stress_handler
      { Engine.domains = !domains; queue_capacity = 8;
        default_timeout_ms = Some 20; cache = None }
  in
  let replies = Atomic.make 0 in
  let submitted = Atomic.make 0 in
  let finished = Atomic.make 0 in
  let client t =
    for i = 0 to per_client - 1 do
      let req =
        { P.id = Json.Int ((t * per_client) + i);
          timeout_ms = (if i mod 5 = 0 then Some 5 else None);
          tenant = None;
          call = P.Ping }
      in
      let (_ : Engine.submit_outcome) =
        Engine.submit engine req ~reply:(fun (_ : string) ->
            Atomic.incr replies)
      in
      Atomic.incr submitted;
      if i mod 7 = 0 then Thread.yield ()
    done;
    Atomic.incr finished
  in
  let threads = List.init clients (fun t -> Thread.create client t) in
  if not drain then begin
    (* Race the abort against in-flight work and parked submitters:
       give the clients a head start, then pull the plug. *)
    Thread.delay 0.05;
    Engine.shutdown ~drain:false engine
  end;
  (* A submitter parked on the full queue after shutdown would hang
     [Thread.join]; fail with a message instead. *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Atomic.get finished < clients && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get finished < clients then
    failwith
      (Printf.sprintf "engine storm: %d of %d client threads still parked"
         (clients - Atomic.get finished) clients);
  List.iter Thread.join threads;
  Engine.shutdown engine;
  (* drain-mode shutdown above is idempotent; after it, every
     submission must have produced exactly one reply. *)
  let s = Atomic.get submitted and r = Atomic.get replies in
  if s <> r then failwith (Printf.sprintf "engine storm: %d submissions but %d replies" s r);
  s

(* ------------------------------------------------------------------ *)
(* Storm 2: fork_join *)

let fork_join_storm ~rounds =
  let n = 1 lsl 14 in
  let out = Array.make n 0 in
  for round = 1 to rounds do
    let d = 1 + (round mod !domains) in
    Parallel.parallel_for ~domains:d ~lo:0 ~hi:n (fun i ->
        out.(i) <- (round * 31) + i);
    for i = 0 to n - 1 do
      if out.(i) <> (round * 31) + i then
        failwith
          (Printf.sprintf "fork_join storm: round %d slot %d holds %d" round
             i out.(i))
    done
  done;
  (* Failure path: worker 1 raises; the others must be joined and the
     exception re-raised (lowest failing index wins). *)
  let exception Boom in
  (match
     Parallel.fork_join ~domains:(max 2 !domains) (fun d ->
         if d = 1 then raise Boom else Thread.yield ())
   with
  | () -> failwith "fork_join storm: exception was swallowed"
  | exception Boom -> ());
  rounds

(* ------------------------------------------------------------------ *)
(* Storm 3: telemetry *)

let telemetry_storm ~rounds =
  Tm.set_enabled true;
  Tm.reset ();
  let d = max 2 !domains in
  let per_domain = rounds * 50 in
  Parallel.fork_join ~domains:d (fun me ->
      for i = 1 to per_domain do
        if me = 0 && i mod 17 = 0 then begin
          (* concurrent export while the others write *)
          let (_ : string) = Tm.to_json_lines () in
          let (_ : int) = Tm.counter_value "race.ticks" in
          ()
        end;
        Tm.with_span "race.span" (fun () ->
            Tm.set_int "iter" i;
            Tm.incr "race.ticks";
            Tm.gauge "race.level" (float_of_int i);
            Tm.gauge_max "race.peak" (float_of_int i))
      done);
  let expect = d * per_domain in
  let got = Tm.counter_value "race.ticks" in
  if got <> expect then
    failwith
      (Printf.sprintf "telemetry storm: expected %d ticks, counted %d" expect
         got);
  Tm.reset ();
  Tm.set_enabled false;
  expect

(* ------------------------------------------------------------------ *)
(* Storm 4: portfolio race/cancel cycles *)

let portfolio_storm ~rounds =
  Tm.set_enabled true;
  Tm.reset ();
  let module Gen = Ps_graph.Gen in
  let module Is = Ps_maxis.Independent_set in
  let module Portfolio = Ps_maxis.Portfolio in
  let g = Gen.gnp (Ps_util.Rng.create 31) 300 0.03 in
  let reference = Portfolio.race (Ps_util.Rng.create 1) g in
  let completed = ref 0 and canceled = ref 0 in
  for round = 1 to rounds do
    let flag = Atomic.make false in
    (* Flip the flag concurrently: sometimes before the race starts,
       sometimes mid-flight, sometimes never — all three interleavings
       must resolve to exactly one of {winner, Canceled}. *)
    let flipper =
      match round mod 3 with
      | 0 ->
          Atomic.set flag true;
          None
      | 1 -> None
      | _ ->
          Some
            (Thread.create
               (fun () ->
                 Thread.yield ();
                 Atomic.set flag true)
               ())
    in
    (match
       Portfolio.race ~cancel:(fun () -> Atomic.get flag)
         (Ps_util.Rng.create 1) g
     with
    | o ->
        incr completed;
        if not (Is.is_independent g o.Portfolio.set)
           || not (Is.is_maximal g o.Portfolio.set)
        then failwith "portfolio storm: uncertified winner";
        (* Exactly-one-winner determinism: any completed race of the
           same seed equals the reference outcome. *)
        if
          (not (String.equal o.Portfolio.winner reference.Portfolio.winner))
          || Is.size o.Portfolio.set <> Is.size reference.Portfolio.set
        then failwith "portfolio storm: nondeterministic winner"
    | exception Portfolio.Canceled -> incr canceled);
    Option.iter Thread.join flipper
  done;
  if !completed + !canceled <> rounds then
    failwith
      (Printf.sprintf "portfolio storm: %d completed + %d canceled <> %d"
         !completed !canceled rounds);
  (* +1 for the reference race; a dropped span/counter means a race
     path skipped its telemetry. *)
  let started = Tm.counter_value "portfolio.races_started" in
  if started <> rounds + 1 then
    failwith
      (Printf.sprintf "portfolio storm: %d races but %d recorded" (rounds + 1)
         started);
  Tm.reset ();
  Tm.set_enabled false;
  (!completed, !canceled)

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "race_stress [--domains N] [--iters N] [--quick]";
  if !quick then iters := min !iters 40;
  let per_client = max 1 (!iters / 4) in
  let jobs_drained = engine_storm ~clients:16 ~per_client ~drain:true in
  Printf.printf "engine drain storm: %d submissions, all replied\n%!"
    jobs_drained;
  let jobs_aborted = engine_storm ~clients:16 ~per_client ~drain:false in
  Printf.printf "engine abort storm: %d submissions, all replied\n%!"
    jobs_aborted;
  let rounds = fork_join_storm ~rounds:(max 1 (!iters / 10)) in
  Printf.printf "fork_join storm: %d rounds verified\n%!" rounds;
  let ticks = telemetry_storm ~rounds:(max 1 (!iters / 10)) in
  Printf.printf "telemetry storm: %d ticks accounted for\n%!" ticks;
  let completed, canceled = portfolio_storm ~rounds:(max 1 (!iters / 5)) in
  Printf.printf "portfolio storm: %d completed, %d canceled\n%!" completed
    canceled;
  print_endline "race_stress: OK"
