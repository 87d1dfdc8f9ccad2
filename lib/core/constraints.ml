module Mat = Mapqn_linalg.Mat
module Ms = Marginal_space
module Lp = Mapqn_lp.Lp_model

type config = { dominance : bool; busy_count : bool; level2 : bool }

let minimal = { dominance = false; busy_count = false; level2 = false }
let standard = { dominance = true; busy_count = true; level2 = false }
let full = { dominance = true; busy_count = true; level2 = true }

let pp_config fmt c =
  Format.fprintf fmt "{dominance=%b; busy_count=%b; level2=%b}" c.dominance
    c.busy_count c.level2

(* Per-station rate data extracted once. *)
type rates = {
  d0 : Mat.t;
  d1 : Mat.t;
  order : int;
  hidden_out : float array; (* phase a -> Σ_{b≠a} D0[a,b] *)
  completion_out : float array; (* phase a -> Σ_b D1[a,b] *)
  completion_out_phase_change : float array; (* phase a -> Σ_{b≠a} D1[a,b] *)
}

let rates_of_station network k =
  let p =
    Mapqn_model.Station.service_process (Mapqn_model.Network.station network k)
  in
  let d0 = Mapqn_map.Process.d0 p and d1 = Mapqn_map.Process.d1 p in
  let order = Mapqn_map.Process.order p in
  let sum_row ?(skip_diag = false) mat a =
    let acc = ref 0. in
    for b = 0 to order - 1 do
      if not (skip_diag && b = a) then acc := !acc +. Mat.get mat a b
    done;
    !acc
  in
  {
    d0;
    d1;
    order;
    hidden_out = Array.init order (fun a -> sum_row ~skip_diag:true d0 a);
    completion_out = Array.init order (fun a -> sum_row d1 a);
    completion_out_phase_change = Array.init order (fun a -> sum_row ~skip_diag:true d1 a);
  }

type ctx = {
  ms : Ms.t;
  model : Lp.t;
  vars : Lp.var array;
  rates : rates array;
  routing : Mat.t;
  m : int;
  n : int;
}

let make_ctx ms =
  let network = Ms.network ms in
  let model = Lp.create () in
  let vars =
    Array.init (Ms.num_vars ms) (fun i ->
        Lp.add_var ~name:(Ms.describe ms i) model)
  in
  {
    ms;
    model;
    vars;
    rates = Array.init (Ms.num_stations ms) (rates_of_station network);
    routing = Mapqn_model.Network.routing network;
    m = Ms.num_stations ms;
    n = Ms.population ms;
  }

let var ctx i = ctx.vars.(i)
let v ctx ~station ~level ~phase = var ctx (Ms.v ctx.ms ~station ~level ~phase)
let w ctx ~busy ~station ~level ~phase =
  var ctx (Ms.w ctx.ms ~busy ~station ~level ~phase)
let z ctx ~counted ~station ~level ~phase =
  var ctx (Ms.z ctx.ms ~counted ~station ~level ~phase)

(* ------------------------------------------------------------------ *)
(* Family 1: level-phase balance                                       *)
(* ------------------------------------------------------------------ *)

(* Flux balance of S = {n_k = n, phase = h}: OUT - IN = 0, with all
   crossing rates expressed over v and w (see the derivation in
   DESIGN.md §4 and the .mli). *)
let balance_row ctx ~k ~n ~h =
  let ms = ctx.ms in
  let terms = ref [] in
  let add var coef = if coef <> 0. then terms := (var, coef) :: !terms in
  let hk = Ms.phase_component ms h k in
  let rk = ctx.rates.(k) in
  let p_kk = Mat.get ctx.routing k k in
  (* OUT at station k (requires k busy, i.e. n >= 1). *)
  if n >= 1 then begin
    let out_rate =
      rk.hidden_out.(hk)
      +. (rk.completion_out.(hk) *. (1. -. p_kk))
      +. (rk.completion_out_phase_change.(hk) *. p_kk)
    in
    add (v ctx ~station:k ~level:n ~phase:h) out_rate
  end;
  (* IN at station k. *)
  for a = 0 to rk.order - 1 do
    let h_src = Ms.phase_subst ms h k a in
    if a <> hk && n >= 1 then begin
      (* hidden a -> hk, and self-routed completion with phase change *)
      add (v ctx ~station:k ~level:n ~phase:h_src)
        (-.(Mat.get rk.d0 a hk +. (Mat.get rk.d1 a hk *. p_kk)))
    end;
    if n + 1 <= ctx.n then
      (* completion at k routed elsewhere, from level n+1 *)
      add (v ctx ~station:k ~level:(n + 1) ~phase:h_src)
        (-.(Mat.get rk.d1 a hk *. (1. -. p_kk)))
  done;
  (* Stations i <> k. *)
  for i = 0 to ctx.m - 1 do
    if i <> k then begin
      let ri = ctx.rates.(i) in
      let hi = Ms.phase_component ms h i in
      let p_ik = Mat.get ctx.routing i k in
      (* OUT from S while i is busy. *)
      let out_rate =
        ri.hidden_out.(hi)
        +. (ri.completion_out.(hi) *. p_ik)
        +. (ri.completion_out_phase_change.(hi) *. (1. -. p_ik))
      in
      add (w ctx ~busy:i ~station:k ~level:n ~phase:h) out_rate;
      (* IN via station i. *)
      for a = 0 to ri.order - 1 do
        let h_src = Ms.phase_subst ms h i a in
        if a <> hi then
          (* hidden at i, or completion at i routed away from k with a
             phase change *)
          add (w ctx ~busy:i ~station:k ~level:n ~phase:h_src)
            (-.(Mat.get ri.d0 a hi +. (Mat.get ri.d1 a hi *. (1. -. p_ik))));
        if n >= 1 then
          (* completion at i routed to k: k's level was n-1 *)
          add (w ctx ~busy:i ~station:k ~level:(n - 1) ~phase:h_src)
            (-.(Mat.get ri.d1 a hi *. p_ik))
      done
    end
  done;
  !terms

let add_balance ctx =
  (* Under profiling, split the dominant family into emitting the
     Kronecker-structured flux terms ([balance_row]) vs assembling them
     into LP rows — the two candidate targets of the planned
     constraint-assembly optimization. Accumulate locally and record
     two [Span.add]s at the end so the unprofiled path is untouched. *)
  let prof = Mapqn_obs.Span.is_profiling () in
  let emit_t = ref 0. in
  let asm_t = ref 0. in
  let rows = ref 0 in
  for k = 0 to ctx.m - 1 do
    for n = 0 to ctx.n do
      Ms.iter_phases ctx.ms (fun h ->
          if prof then begin
            let t0 = Mapqn_obs.Span.now () in
            let terms = balance_row ctx ~k ~n ~h in
            let t1 = Mapqn_obs.Span.now () in
            emit_t := !emit_t +. (t1 -. t0);
            if terms <> [] then begin
              Lp.add_row ~name:(Printf.sprintf "bal[k=%d,n=%d,h=%d]" k n h)
                ctx.model terms Lp.Eq 0.;
              incr rows;
              asm_t := !asm_t +. (Mapqn_obs.Span.now () -. t1)
            end
          end
          else
            let terms = balance_row ctx ~k ~n ~h in
            if terms <> [] then
              Lp.add_row ~name:(Printf.sprintf "bal[k=%d,n=%d,h=%d]" k n h)
                ctx.model terms Lp.Eq 0.)
    done
  done;
  if prof then begin
    let n = max 1 !rows in
    Mapqn_obs.Span.add ~count:n "kron-emit" !emit_t;
    Mapqn_obs.Span.add ~count:n "row-assembly" !asm_t
  end

(* ------------------------------------------------------------------ *)
(* Families 2-6: equalities                                            *)
(* ------------------------------------------------------------------ *)

let add_normalization ctx =
  for k = 0 to ctx.m - 1 do
    let terms = ref [] in
    for n = 0 to ctx.n do
      Ms.iter_phases ctx.ms (fun h ->
          terms := (v ctx ~station:k ~level:n ~phase:h, 1.) :: !terms)
    done;
    Lp.add_row ~name:(Printf.sprintf "norm[k=%d]" k) ctx.model !terms Lp.Eq 1.
  done

let add_phase_consistency ctx =
  (* Only useful when there is more than one joint phase. *)
  if Ms.num_phase_vectors ctx.ms > 1 then
    for k = 1 to ctx.m - 1 do
      Ms.iter_phases ctx.ms (fun h ->
          let terms = ref [] in
          for n = 0 to ctx.n do
            terms := (v ctx ~station:k ~level:n ~phase:h, 1.) :: !terms;
            terms := (v ctx ~station:0 ~level:n ~phase:h, -1.) :: !terms
          done;
          Lp.add_row ~name:(Printf.sprintf "phcons[k=%d,h=%d]" k h) ctx.model !terms
            Lp.Eq 0.)
    done

let add_busy_mass ctx =
  for j = 0 to ctx.m - 1 do
    for k = 0 to ctx.m - 1 do
      if j <> k then
        Ms.iter_phases ctx.ms (fun h ->
            let terms = ref [] in
            for n = 0 to ctx.n do
              terms := (w ctx ~busy:j ~station:k ~level:n ~phase:h, 1.) :: !terms
            done;
            for n = 1 to ctx.n do
              terms := (v ctx ~station:j ~level:n ~phase:h, -1.) :: !terms
            done;
            Lp.add_row
              ~name:(Printf.sprintf "busymass[j=%d,k=%d,h=%d]" j k h)
              ctx.model !terms Lp.Eq 0.)
    done
  done

let add_population ctx =
  let terms = ref [] in
  for k = 0 to ctx.m - 1 do
    for n = 1 to ctx.n do
      Ms.iter_phases ctx.ms (fun h ->
          terms := (v ctx ~station:k ~level:n ~phase:h, float_of_int n) :: !terms)
    done
  done;
  Lp.add_row ~name:"population" ctx.model !terms Lp.Eq (float_of_int ctx.n)

(* Both-busy symmetry: summing w_{j,k} over levels n >= 1 gives
   P{n_j >= 1, n_k >= 1, phase = h}, which is symmetric in (j, k). This is
   genuinely new information: the other families only tie each w to its
   own v margins. *)
let add_busy_symmetry ctx =
  for j = 0 to ctx.m - 1 do
    for k = j + 1 to ctx.m - 1 do
      Ms.iter_phases ctx.ms (fun h ->
          let terms = ref [] in
          for n = 1 to ctx.n do
            terms := (w ctx ~busy:j ~station:k ~level:n ~phase:h, 1.) :: !terms;
            terms := (w ctx ~busy:k ~station:j ~level:n ~phase:h, -1.) :: !terms
          done;
          if !terms <> [] then
            Lp.add_row
              ~name:(Printf.sprintf "busysym[%d,%d,h=%d]" j k h)
              ctx.model !terms Lp.Eq 0.)
    done
  done

(* Product-moment symmetry (level 2): Σ_n n·z_{j,k}(n,h) = E[n_j n_k 1{h}]
   is symmetric in (j, k). *)
let add_product_symmetry ctx =
  for j = 0 to ctx.m - 1 do
    for k = j + 1 to ctx.m - 1 do
      Ms.iter_phases ctx.ms (fun h ->
          let terms = ref [] in
          for n = 1 to ctx.n do
            terms :=
              (z ctx ~counted:j ~station:k ~level:n ~phase:h, float_of_int n)
              :: !terms;
            terms :=
              (z ctx ~counted:k ~station:j ~level:n ~phase:h, -.float_of_int n)
              :: !terms
          done;
          if !terms <> [] then
            Lp.add_row
              ~name:(Printf.sprintf "prodsym[%d,%d,h=%d]" j k h)
              ctx.model !terms Lp.Eq 0.)
    done
  done

let add_boundary_zeros ctx =
  if ctx.n >= 1 then
    for j = 0 to ctx.m - 1 do
      for k = 0 to ctx.m - 1 do
        if j <> k then
          Ms.iter_phases ctx.ms (fun h ->
              Lp.add_row
                ~name:(Printf.sprintf "wzero[j=%d,k=%d,h=%d]" j k h)
                ctx.model
                [ (w ctx ~busy:j ~station:k ~level:ctx.n ~phase:h, 1.) ]
                Lp.Eq 0.)
      done
    done

(* ------------------------------------------------------------------ *)
(* Families 7-8: inequalities                                          *)
(* ------------------------------------------------------------------ *)

let add_dominance ctx =
  for j = 0 to ctx.m - 1 do
    for k = 0 to ctx.m - 1 do
      if j <> k then
        for n = 0 to ctx.n - 1 do
          Ms.iter_phases ctx.ms (fun h ->
              Lp.add_row
                ~name:(Printf.sprintf "dom[j=%d,k=%d,n=%d,h=%d]" j k n h)
                ctx.model
                [
                  (w ctx ~busy:j ~station:k ~level:n ~phase:h, 1.);
                  (v ctx ~station:k ~level:n ~phase:h, -1.);
                ]
                Lp.Le 0.)
        done
    done
  done

let add_busy_count ctx =
  if ctx.m >= 2 then
    for k = 0 to ctx.m - 1 do
      for n = 0 to ctx.n - 1 do
        Ms.iter_phases ctx.ms (fun h ->
            let ws =
              List.filter_map
                (fun j ->
                  if j = k then None
                  else Some (w ctx ~busy:j ~station:k ~level:n ~phase:h, 1.))
                (List.init ctx.m (fun j -> j))
            in
            let vk = v ctx ~station:k ~level:n ~phase:h in
            (* At least one other station holds the N - n > 0 other jobs. *)
            Lp.add_row
              ~name:(Printf.sprintf "busylo[k=%d,n=%d,h=%d]" k n h)
              ctx.model
              ((vk, -1.) :: ws)
              Lp.Ge 0.;
            (* At most min(M-1, N-n) other stations can be busy. *)
            let cap = float_of_int (min (ctx.m - 1) (ctx.n - n)) in
            Lp.add_row
              ~name:(Printf.sprintf "busyhi[k=%d,n=%d,h=%d]" k n h)
              ctx.model
              ((vk, -.cap) :: ws)
              Lp.Le 0.)
      done
    done

(* ------------------------------------------------------------------ *)
(* Families 10-12: level-2 (z) identities                              *)
(* ------------------------------------------------------------------ *)

let add_level2 ctx =
  if ctx.m >= 2 then begin
    for k = 0 to ctx.m - 1 do
      for n = 0 to ctx.n do
        Ms.iter_phases ctx.ms (fun h ->
            (* Σ_{j≠k} z_{j,k}(n,h) = (N - n) v_k(n,h): the other stations
               hold exactly the remaining jobs. *)
            let zs =
              List.filter_map
                (fun j ->
                  if j = k then None
                  else Some (z ctx ~counted:j ~station:k ~level:n ~phase:h, 1.))
                (List.init ctx.m (fun j -> j))
            in
            Lp.add_row
              ~name:(Printf.sprintf "zsum[k=%d,n=%d,h=%d]" k n h)
              ctx.model
              ((v ctx ~station:k ~level:n ~phase:h, -.float_of_int (ctx.n - n)) :: zs)
              Lp.Eq 0.)
      done
    done;
    for j = 0 to ctx.m - 1 do
      for k = 0 to ctx.m - 1 do
        if j <> k then begin
          Ms.iter_phases ctx.ms (fun h ->
              (* Mass: Σ_n z_{j,k}(n,h) = Σ_n n v_j(n,h) = E[n_j 1{phase=h}]. *)
              let terms = ref [] in
              for n = 0 to ctx.n do
                terms := (z ctx ~counted:j ~station:k ~level:n ~phase:h, 1.) :: !terms
              done;
              for n = 1 to ctx.n do
                terms :=
                  (v ctx ~station:j ~level:n ~phase:h, -.float_of_int n) :: !terms
              done;
              Lp.add_row
                ~name:(Printf.sprintf "zmass[j=%d,k=%d,h=%d]" j k h)
                ctx.model !terms Lp.Eq 0.);
          for n = 0 to ctx.n do
            Ms.iter_phases ctx.ms (fun h ->
                let zv = z ctx ~counted:j ~station:k ~level:n ~phase:h in
                let wv = w ctx ~busy:j ~station:k ~level:n ~phase:h in
                if n = ctx.n then
                  Lp.add_row
                    ~name:(Printf.sprintf "zzero[j=%d,k=%d,h=%d]" j k h)
                    ctx.model [ (zv, 1.) ] Lp.Eq 0.
                else begin
                  (* n_j >= 1{n_j >= 1} and n_j <= (N - n) 1{n_j >= 1}. *)
                  Lp.add_row
                    ~name:(Printf.sprintf "zlo[j=%d,k=%d,n=%d,h=%d]" j k n h)
                    ctx.model
                    [ (zv, 1.); (wv, -1.) ]
                    Lp.Ge 0.;
                  Lp.add_row
                    ~name:(Printf.sprintf "zhi[j=%d,k=%d,n=%d,h=%d]" j k n h)
                    ctx.model
                    [ (zv, 1.); (wv, -.float_of_int (ctx.n - n)) ]
                    Lp.Le 0.
                end)
          done
        end
      done
    done
  end

(* ------------------------------------------------------------------ *)

let m_family_rows name =
  Mapqn_obs.Metrics.gauge
    ~help:"LP rows emitted per constraint family by the last build."
    ~labels:[ ("family", name) ]
    "lp_constraint_rows"

let m_lp_rows =
  Mapqn_obs.Metrics.gauge ~help:"Total LP rows of the last constraint build."
    "lp_rows"

let m_lp_vars =
  Mapqn_obs.Metrics.gauge ~help:"LP variables (columns) of the last constraint build."
    "lp_vars"

let m_lp_nnz =
  Mapqn_obs.Metrics.gauge
    ~help:"Stored constraint coefficients of the last build — the matrix \
           size as the sparse (revised) solver sees it."
    "lp_nnz"

let check_network network =
  if Mapqn_model.Network.has_delay network then
    invalid_arg
      "Constraints.build: delay (infinite-server) stations are outside the \
       marginal-balance derivation; model think time as a queueing station \
       or use MVA/simulation"

(* Emit every family selected by [config] into [ctx], with [balance]
   supplying the level-phase balance rows (the default emitter or the
   template-instantiating one of {!Incremental}). *)
let assemble ~balance config ctx =
  (* Every family reports the rows it contributed, so telemetry shows
     which families dominate the LP (and bound-quality regressions can be
     correlated with constraint-set changes). *)
  let family name enabled add =
    let before = Lp.num_rows ctx.model in
    if enabled then Mapqn_obs.Span.with_ name (fun () -> add ctx);
    Mapqn_obs.Metrics.set (m_family_rows name)
      (float_of_int (Lp.num_rows ctx.model - before))
  in
  family "balance" true balance;
  family "normalization" true add_normalization;
  family "phase-consistency" true add_phase_consistency;
  family "busy-mass" true add_busy_mass;
  family "busy-symmetry" true add_busy_symmetry;
  family "population" true add_population;
  family "boundary-zeros" true add_boundary_zeros;
  family "dominance" config.dominance add_dominance;
  family "busy-count" config.busy_count add_busy_count;
  family "level2" config.level2 add_level2;
  family "product-symmetry" config.level2 add_product_symmetry;
  Mapqn_obs.Metrics.set m_lp_rows (float_of_int (Lp.num_rows ctx.model));
  Mapqn_obs.Metrics.set m_lp_vars (float_of_int (Lp.num_vars ctx.model));
  Mapqn_obs.Metrics.set m_lp_nnz (float_of_int (Lp.num_nonzeros ctx.model))

let build config network =
  Mapqn_obs.Span.with_ "constraints.build" @@ fun () ->
  check_network network;
  let ms = Ms.create ~level2:config.level2 network in
  let ctx = make_ctx ms in
  assemble ~balance:add_balance config ctx;
  (ms, ctx.model)

(* ------------------------------------------------------------------ *)
(* Incremental (in the population) assembly                            *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* One term of an interior balance row bal[k,n,h] (0 < n < N), with the
     level stored relative to n. The balance coefficients depend only on
     the service rates and the routing — never on the level or the
     population — so a single probe row per (k, h) instantiates every
     interior level of every population: extending a sweep from N to N'
     re-derives the Kronecker flux terms for just the two boundary levels
     instead of all N' + 1. *)
  type tterm =
    | T_v of { station : int; dn : int; phase : int; coef : float }
    | T_w of { busy : int; station : int; dn : int; phase : int; coef : float }

  type t = {
    config : config;
    m : int;
    phase_dims : int array;
    (* Exact rate/routing values the templates were derived from; reused
       across populations only while the network's stations are
       unchanged. *)
    fingerprint : float array;
    mutable templates : tterm list array array option; (* [k].(h) *)
  }

  let fingerprint network =
    let m = Mapqn_model.Network.num_stations network in
    let acc = ref [] in
    let push_mat mat order =
      for a = order - 1 downto 0 do
        for b = order - 1 downto 0 do
          acc := Mat.get mat a b :: !acc
        done
      done
    in
    let routing = Mapqn_model.Network.routing network in
    push_mat routing m;
    for k = m - 1 downto 0 do
      let p =
        Mapqn_model.Station.service_process
          (Mapqn_model.Network.station network k)
      in
      let order = Mapqn_map.Process.order p in
      push_mat (Mapqn_map.Process.d1 p) order;
      push_mat (Mapqn_map.Process.d0 p) order
    done;
    Array.of_list !acc

  let classify_term ms n ((var : Lp.var), coef) =
    match Ms.classify ms (var :> int) with
    | Ms.Role_v { station; level; phase } ->
      T_v { station; dn = level - n; phase; coef }
    | Ms.Role_w { busy; station; level; phase } ->
      T_w { busy; station; dn = level - n; phase; coef }
    | Ms.Role_z _ -> assert false (* balance rows never touch z *)

  (* Probe at n = 1, interior whenever N >= 2. *)
  let templates inc (ctx : ctx) =
    match inc.templates with
    | Some tpl -> tpl
    | None ->
      let tpl =
        Array.init ctx.m (fun k ->
            Array.init (Ms.num_phase_vectors ctx.ms) (fun h ->
                List.map (classify_term ctx.ms 1) (balance_row ctx ~k ~n:1 ~h)))
      in
      inc.templates <- Some tpl;
      tpl

  let instantiate (ctx : ctx) tpl ~n =
    List.map
      (function
        | T_v { station; dn; phase; coef } ->
          (v ctx ~station ~level:(n + dn) ~phase, coef)
        | T_w { busy; station; dn; phase; coef } ->
          (w ctx ~busy ~station ~level:(n + dn) ~phase, coef))
      tpl

  (* Same rows, names and term order as [add_balance]: the interior rows
     share the probe row's (level-independent) control flow, so shifting
     its levels reproduces them exactly — asserted by the equality test
     in test/core. *)
  let add_balance_templated inc (ctx : ctx) =
    if ctx.n < 2 then add_balance ctx
    else begin
      let tpl = templates inc ctx in
      for k = 0 to ctx.m - 1 do
        for n = 0 to ctx.n do
          Ms.iter_phases ctx.ms (fun h ->
              let terms =
                if n >= 1 && n < ctx.n then instantiate ctx tpl.(k).(h) ~n
                else balance_row ctx ~k ~n ~h
              in
              if terms <> [] then
                Lp.add_row ~name:(Printf.sprintf "bal[k=%d,n=%d,h=%d]" k n h)
                  ctx.model terms Lp.Eq 0.)
        done
      done
    end

  let extend inc network =
    Mapqn_obs.Span.with_ "constraints.extend" @@ fun () ->
    check_network network;
    if
      Mapqn_model.Network.num_stations network <> inc.m
      || Mapqn_model.Network.phase_dims network <> inc.phase_dims
      || fingerprint network <> inc.fingerprint
    then
      invalid_arg
        "Constraints.Incremental.extend: the network's stations or routing \
         differ from the one the builder was created for (only the \
         population may change)";
    let ms = Ms.create ~level2:inc.config.level2 network in
    let ctx = make_ctx ms in
    assemble ~balance:(add_balance_templated inc) inc.config ctx;
    (ms, ctx.model)

  let create config network =
    check_network network;
    let inc =
      {
        config;
        m = Mapqn_model.Network.num_stations network;
        phase_dims = Mapqn_model.Network.phase_dims network;
        fingerprint = fingerprint network;
        templates = None;
      }
    in
    let ms, model = extend inc network in
    (inc, ms, model)
end

let cut_balance_residual ms point =
  let network = Ms.network ms in
  let m = Ms.num_stations ms and n_max = Ms.population ms in
  let routing = Mapqn_model.Network.routing network in
  let rates = Array.init m (rates_of_station network) in
  let worst = ref 0. in
  for k = 0 to m - 1 do
    let p_kk = Mat.get routing k k in
    for n = 1 to n_max do
      let inflow = ref 0. and outflow = ref 0. in
      Ms.iter_phases ms (fun h ->
          let hk = Ms.phase_component ms h k in
          outflow :=
            !outflow
            +. rates.(k).completion_out.(hk)
               *. (1. -. p_kk)
               *. point.(Ms.v ms ~station:k ~level:n ~phase:h);
          for i = 0 to m - 1 do
            if i <> k then begin
              let hi = Ms.phase_component ms h i in
              let p_ik = Mat.get routing i k in
              if p_ik > 0. then
                inflow :=
                  !inflow
                  +. rates.(i).completion_out.(hi)
                     *. p_ik
                     *. point.(Ms.w ms ~busy:i ~station:k ~level:(n - 1) ~phase:h)
            end
          done);
      worst := Float.max !worst (Float.abs (!inflow -. !outflow))
    done
  done;
  !worst
