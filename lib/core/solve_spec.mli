(** What one solve of the Theorem 1.1 pipeline asks for: the MaxIS
    oracle, the presolve around it, the palette size and the seed.

    A spec is built by the one option decoder
    ({!Ps_server.Protocol.solve_spec}) that the wire's [reduce] and
    [certify] methods and the CLI's [reduce], [audit] and [mis --solver]
    share, and it owns the two projections every consumer of those
    options needs: the effective solver name and the {!Pipeline.k_choice}. *)

type t = {
  solver : Ps_maxis.Approx.solver;  (** the oracle, before any presolve *)
  presolve : Ps_maxis.Kernel.choice;
  k : int option;  (** [None]: derive k from the conservative CF coloring *)
  seed : int;
}

val solver_name : t -> string
(** The {e effective} name, [(Kernel.apply presolve solver).name]: it
    carries the ["kernel+"] prefix when [presolve] is [`Kernel] and the
    solver does not already own its kernelization.  Run records report
    it and cache keys hash it, so kernel-on and kernel-off results never
    alias. *)

val k_choice : t -> Pipeline.k_choice
(** [None] is {!Pipeline.From_conservative}, [Some v] is
    {!Pipeline.Fixed}[ v]. *)
