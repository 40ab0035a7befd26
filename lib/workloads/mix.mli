(** Labeled multi-tenant service mixes: compose several suite workloads
    into one program serving weighted, time-varying traffic, with every
    request labeled by tenant — the workload side of request-scoped
    profile labels.

    Composition is at the AST level: each tenant's MiniC source is parsed,
    its functions, globals and modules are prefix-renamed (tenant [i] gets
    [t<i>_]), and a dispatcher [main(tenant, a0, a1, ...)] switches on the
    first argument to the renamed entry point (extra arguments are padded
    with zeros to the widest tenant arity). The composed source re-parses
    and lowers like any suite workload, so every driver, plan stage and
    fleet path runs it unchanged.

    Traffic is a seeded weighted draw per request. With a diurnal period,
    each tenant's weight is modulated by an integer triangle wave,
    phase-shifted per tenant, so the mix drifts over the stream — tenants
    take turns dominating, the way day/night traffic rotates across
    regions. Equal inputs yield byte-identical mixes (sources, streams and
    labels). *)

type tenant = {
  t_name : string;  (** the [tenant=] label value; must be unique *)
  t_workload : Csspgo_core.Driver.workload;
  t_weight : int;  (** base traffic weight, > 0 *)
}

type t = {
  mx_workload : Csspgo_core.Driver.workload;
      (** the composed program: [w_train] is the blended request stream
          (label-blind view of [mx_requests]), [w_eval] the concatenation
          of every tenant's eval specs *)
  mx_requests : (Csspgo_core.Driver.run_spec * Csspgo_support.Label_set.t) list;
      (** the labeled train stream, in serving order — feed to
          [Fleet.Instance.serve_labeled] *)
  mx_tenant_evals : (string * Csspgo_core.Driver.run_spec list) list;
      (** per-tenant eval specs (tenant-dispatched), for per-tenant
          specialized builds and truth runs *)
  mx_counts : (string * int) list;
      (** requests per tenant in the stream — the observed mix *)
}

val tenant_key : string
(** ["tenant"] — the label key carrying {!tenant.t_name}; project label
    sets onto [[tenant_key]] to group per-request slices by tenant. *)

val make :
  ?seed:int64 ->
  ?requests:int ->
  ?diurnal_period:int ->
  tenant list ->
  t
(** Compose a mix. [requests] (default 64) is the train-stream length;
    [diurnal_period] (default 0 = stationary weights) is the triangle-wave
    period in requests.
    @raise Invalid_argument on an empty tenant list, a duplicate tenant
    name, a non-positive weight, or a tenant workload with no train spec.
    @raise Csspgo_frontend.Parser.Parse_error if a tenant source does not
    parse. *)
