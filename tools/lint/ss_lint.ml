(* ss_lint: a compiler-libs determinism & data-race lint for this tree.

   Every optimisation layer in this repo (incremental Dinic, decomposition,
   compression, streaming, the batch dispatcher, cross-phase reuse) promises
   bit-identical outputs across substrates, domain counts and cache
   hit/miss paths.  That promise is guarded dynamically by the agreement
   suites and [Flow.audit]; this tool is the static half of the gate.  It
   parses every .ml under the given roots with compiler-libs ([Parse] +
   a scoped parsetree walk — no ppx, no new dependencies) and enforces:

     R1 poly-compare   Bare polymorphic [compare] anywhere (applied or
                       passed to a sort); bare [min]/[max]/[=]/[<>] on
                       syntactically-float operands, and [min]/[max]
                       passed as values, in the float-monomorphic
                       hot-path modules (lib/flow, lib/core,
                       lib/online/engine.ml).  Polymorphic comparison is
                       both slow (caml_compare) and a determinism hazard
                       the moment a float or a mutable sneaks into the
                       compared type.
     R2 float-eq       [=]/[<>]/[==]/[!=] against a float literal,
                       anywhere.  The exact bug class fixed in PR 7's
                       [Engine.arriving]; intentional exact tests must
                       spell [Float.equal].
     R3 hashtbl-order  [Hashtbl.fold]/[Hashtbl.iter] whose surrounding
                       expression has no canonicalizing sort
                       ([List.sort]/[sort_uniq]/[Array.sort] applied to
                       the result, directly or via [|>]/[@@]).  Hashtbl
                       iteration order is seeded/nondeterministic.
     R4 wallclock      [Random.*], [Sys.time], [Unix.gettimeofday],
                       [Unix.time] outside bench/ and the workload
                       generators (lib/workload/generators.ml, rng.ml).
     R5 domain-race    A mutation ([:=], [incr]/[decr], [Array.set],
                       [Bytes.set], [e.f <- v]) of a binding captured by
                       a closure handed to [Domain.spawn] or
                       [Pool.map]/[Pool.mapw], outside [Atomic.*] and
                       any Mutex-guarded region.  Flags the exact
                       mutation site inside the spawned closure.

   Suppression: put

       (* ss_lint: allow <rule> — <reason> *)

   on the offending line (or alone on the line directly above).  <rule>
   is the short name above or R1..R5; several rules may be
   comma-separated.  A reason is required by convention, not by the
   parser.

   Exit status: 0 clean, 1 diagnostics, 2 usage/parse errors.
   [--json] emits a machine-readable report (consumed as a committed
   LINT.json baseline). *)

module L = Longident

(* ---------------------------------------------------------------- rules *)

type rule = R1 | R2 | R3 | R4 | R5

let rule_name = function
  | R1 -> "poly-compare"
  | R2 -> "float-eq"
  | R3 -> "hashtbl-order"
  | R4 -> "wallclock"
  | R5 -> "domain-race"

let rule_id = function R1 -> "R1" | R2 -> "R2" | R3 -> "R3" | R4 -> "R4" | R5 -> "R5"
let all_rules = [ R1; R2; R3; R4; R5 ]

let rule_of_string s =
  match String.lowercase_ascii s with
  | "r1" | "poly-compare" -> Some R1
  | "r2" | "float-eq" -> Some R2
  | "r3" | "hashtbl-order" -> Some R3
  | "r4" | "wallclock" -> Some R4
  | "r5" | "domain-race" -> Some R5
  | _ -> None

let rule_doc = function
  | R1 ->
    "polymorphic compare/min/max/=/<> where a typed comparison is required \
     (compare everywhere; min/max/=/<> in the float hot-path modules)"
  | R2 -> "equality comparison against a float literal (use Float.equal)"
  | R3 -> "Hashtbl.fold/iter result escapes without a canonicalizing sort"
  | R4 -> "wall-clock / RNG outside bench/ and the workload generators"
  | R5 ->
    "mutation of a captured binding inside a closure passed to \
     Domain.spawn/Pool without Atomic or a Mutex guard"

(* ---------------------------------------------------------- diagnostics *)

type diag = { file : string; line : int; col : int; rule : rule; msg : string }

let diags : (string * int * int * string, diag) Hashtbl.t = Hashtbl.create 64
let parse_errors = ref 0

let report file (loc : Location.t) rule msg =
  let p = loc.loc_start in
  let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol in
  let key = (file, line, col, rule_id rule) in
  if not (Hashtbl.mem diags key) then Hashtbl.replace diags key { file; line; col; rule; msg }

(* ---------------------------------------------------------- suppression *)

(* Per file: line number -> rules allowed on that line.  A comment alone
   on a line also covers the line below it. *)
let suppressions file lines =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i line ->
      match
        let marker = "ss_lint:" in
        let rec find k =
          if k + String.length marker > String.length line then None
          else if String.sub line k (String.length marker) = marker then Some k
          else find (k + 1)
        in
        find 0
      with
      | None -> ()
      | Some k ->
        let rest = String.sub line (k + 8) (String.length line - k - 8) in
        let rest = String.trim rest in
        if String.length rest >= 5 && String.sub rest 0 5 = "allow" then begin
          let spec = String.sub rest 5 (String.length rest - 5) in
          (* Rule tokens run until an em/double dash or the comment close. *)
          let stop =
            List.fold_left
              (fun acc pat ->
                let rec find k =
                  if k + String.length pat > String.length spec then acc
                  else if String.sub spec k (String.length pat) = pat then min acc k
                  else find (k + 1)
                in
                find 0)
              (String.length spec)
              [ "\xe2\x80\x94" (* — *); "--"; "*)" ]
          in
          let spec = String.sub spec 0 stop in
          let rules =
            String.split_on_char ',' spec
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter_map (fun t ->
                   let t = String.trim t in
                   if t = "" then None else rule_of_string t)
          in
          if rules = [] then
            Printf.eprintf "ss_lint: %s:%d: unparseable suppression (no known rule name)\n"
              file (i + 1)
          else
            let own_line =
              let t = String.trim line in
              String.length t >= 2 && t.[0] = '(' && t.[1] = '*'
            in
            List.iter
              (fun r ->
                Hashtbl.replace tbl (i + 1, rule_id r) ();
                (* A comment alone on its line covers the line below. *)
                if own_line then Hashtbl.replace tbl (i + 2, rule_id r) ())
              rules
        end)
    lines;
  tbl

(* --------------------------------------------------------------- scopes *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ends_with = String.ends_with

let norm file = String.map (fun c -> if c = '\\' then '/' else c) file

let hot_path file =
  let f = norm file in
  contains ~sub:"lib/flow/" f || contains ~sub:"lib/core/" f
  || ends_with ~suffix:"lib/online/engine.ml" f

let wallclock_exempt file =
  let f = norm file in
  contains ~sub:"bench/" f
  || ends_with ~suffix:"lib/workload/generators.ml" f
  || ends_with ~suffix:"lib/workload/rng.ml" f

(* ------------------------------------------------------------- the walk *)

open Parsetree

module SSet = Set.Make (String)

type env = {
  bound : SSet.t;                       (* locally-bound value names *)
  defs : (string * expression) list;    (* recent let bindings, for R5 *)
}

let empty_env = { bound = SSet.empty; defs = [] }

type ctx = {
  file : string;
  hot : bool;     (* R1 extended checks apply *)
  clocks : bool;  (* R4 applies *)
  sorted : bool;  (* R3: under a canonicalizing sort *)
}

let rec pat_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p)) -> pat_vars acc p
  | Ppat_variant (_, Some p) -> pat_vars acc p
  | Ppat_record (fs, _) -> List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fs
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p ->
    pat_vars acc p
  | _ -> acc

let add_pat env p = { env with bound = List.fold_left (fun s v -> SSet.add v s) env.bound (pat_vars [] p) }

let add_vbs env vbs =
  let bound =
    List.fold_left
      (fun s vb -> List.fold_left (fun s v -> SSet.add v s) s (pat_vars [] vb.pvb_pat))
      env.bound vbs
  in
  let defs =
    List.fold_left
      (fun defs vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } -> (txt, vb.pvb_expr) :: defs
        | _ -> defs)
      env.defs vbs
  in
  { bound; defs }

let lid_of e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (L.flatten txt) | _ -> None

(* Base identifier of an application, peeling nested applies:
   [List.sort cmp xs] -> Some ["List"; "sort"]. *)
let rec head_lid e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (L.flatten txt)
  | Pexp_apply (f, _) -> head_lid f
  | _ -> None

let is_sort_head = function
  | Some [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ]
  | Some [ "Array"; ("sort" | "stable_sort") ]
  | Some [ "ListLabels"; ("sort" | "stable_sort" | "sort_uniq") ] ->
    true
  | _ -> false

(* Syntactic evidence that an expression is a float. *)
let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (e, { ptyp_desc = Ptyp_constr ({ txt = L.Lident "float"; _ }, []); _ }) ->
    ignore e; true
  | Pexp_constraint (e, _) -> floatish e
  | Pexp_ident { txt = L.Lident ("infinity" | "neg_infinity" | "nan" | "epsilon_float" | "max_float" | "min_float"); _ } ->
    true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    match L.flatten txt with
    | [ ("+." | "-." | "*." | "/." | "**" | "~-." | "float_of_int" | "float") ] -> true
    | [ "Float"; f ] ->
      (* Float.to_int / compare / equal return non-floats; everything else
         in Float that we would meet here yields a float. *)
      not (List.mem f [ "to_int"; "compare"; "equal"; "is_nan"; "is_finite"; "to_string" ])
    | _ -> List.exists (fun (_, a) -> floatish_lit a) args)
  | _ -> false

and floatish_lit e =
  match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> floatish e

let float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = L.Lident ("~-." | "~-"); _ }; _ }, [ (_, a) ])
    -> (
    match a.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false)
  | _ -> false

(* ----------------------------------------------------- R5: race checker *)

(* Peel a mutation target down to its base identifier:
   [t.cells.(i)] -> ["t"], [arr] -> ["arr"]. *)
let rec mut_base e =
  match e.pexp_desc with
  | Pexp_ident { txt = L.Lident x; _ } -> Some x
  | Pexp_ident _ -> None
  | Pexp_field (e, _) -> mut_base e
  | Pexp_constraint (e, _) -> mut_base e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, a) :: _) -> (
    match L.flatten txt with
    | [ "Array"; ("get" | "unsafe_get") ] | [ "Bytes"; ("get" | "unsafe_get") ] -> mut_base a
    | _ -> None)
  | _ -> None

let spawn_site_name = function
  | [ "Domain"; "spawn" ] -> Some "Domain.spawn"
  | l -> (
    match List.rev l with
    | ("map" | "mapi" | "map_list" | "all" | "map_reduce" | "mapw") :: _
      when List.mem "Pool" l ->
      Some (String.concat "." l)
    | _ -> None)

let rec race_walk ctx ~spawn bound guard e =
  let recurse = race_walk ctx ~spawn in
  let flag target loc what =
    match mut_base target with
    | Some x when not (SSet.mem x bound) && not guard ->
      report ctx.file loc R5
        (Printf.sprintf
           "%s of '%s', captured by a closure passed to %s — use Atomic.* or a \
            Mutex-guarded region"
           what x spawn)
    | _ -> ()
  in
  match e.pexp_desc with
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as h), args) -> (
    let fl = L.flatten txt in
    match (fl, args) with
    | [ ":=" ], (_, lhs) :: _ ->
      flag lhs e.pexp_loc "assignment to ref";
      List.iter (fun (_, a) -> recurse bound guard a) args
    | [ ("incr" | "decr") ], (_, lhs) :: _ ->
      flag lhs e.pexp_loc (List.hd fl);
      List.iter (fun (_, a) -> recurse bound guard a) args
    | ( [ "Array"; ("set" | "unsafe_set" | "fill" | "blit") ]
      | [ "Bytes"; ("set" | "unsafe_set" | "fill" | "blit") ]
      | [ "Hashtbl"; ("replace" | "add" | "remove" | "reset" | "clear") ]
      | [ "Buffer"; ("add_string" | "add_char" | "add_buffer" | "clear" | "reset") ]
      | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear") ]
      | [ "Stack"; ("push" | "pop" | "clear") ] ),
      (_, lhs) :: _ ->
      flag lhs e.pexp_loc (String.concat "." fl);
      List.iter (fun (_, a) -> recurse bound guard a) args
    | [ "Mutex"; "protect" ], _ ->
      (* Everything under Mutex.protect is a guarded region. *)
      List.iter (fun (_, a) -> recurse bound true a) args
    | _ ->
      recurse bound guard h;
      List.iter (fun (_, a) -> recurse bound guard a) args)
  | Pexp_setfield (base, _, v) ->
    flag base e.pexp_loc "record field mutation";
    recurse bound guard base;
    recurse bound guard v
  | Pexp_sequence (a, b) ->
    recurse bound guard a;
    let guard' =
      match head_lid a with
      | Some [ "Mutex"; "lock" ] -> true
      | Some [ "Mutex"; "unlock" ] -> false
      | _ -> guard
    in
    recurse bound guard' b
  | Pexp_let (rf, vbs, body) ->
    let bound' =
      List.fold_left
        (fun s vb -> List.fold_left (fun s v -> SSet.add v s) s (pat_vars [] vb.pvb_pat))
        bound vbs
    in
    List.iter (fun vb -> recurse (if rf = Asttypes.Recursive then bound' else bound) guard vb.pvb_expr) vbs;
    recurse bound' guard body
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (recurse bound guard) default;
    recurse (List.fold_left (fun s v -> SSet.add v s) bound (pat_vars [] pat)) guard body
  | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
    (match e.pexp_desc with
    | Pexp_match (s, _) | Pexp_try (s, _) -> recurse bound guard s
    | _ -> ());
    List.iter
      (fun c ->
        let bound' = List.fold_left (fun s v -> SSet.add v s) bound (pat_vars [] c.pc_lhs) in
        Option.iter (recurse bound' guard) c.pc_guard;
        recurse bound' guard c.pc_rhs)
      cases
  | Pexp_for (pat, a, b, _, body) ->
    recurse bound guard a;
    recurse bound guard b;
    recurse (List.fold_left (fun s v -> SSet.add v s) bound (pat_vars [] pat)) guard body
  | _ ->
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ e' -> recurse bound guard e') }
    in
    Ast_iterator.default_iterator.expr it e

(* Entry: [arg] is an argument handed to a spawn-like call.  A literal
   [fun] is walked directly with its parameters bound; a (possibly
   partially applied) identifier resolves one level through visible
   [let] bindings.  For a partial application [spawn (f shared 1)], the
   formals consumed by the applied prefix alias call-site values, so they
   stay FREE — mutating them inside [f] mutates state shared across
   domains. *)
let rec race_check ctx env ~spawn ?(applied = 0) arg =
  match arg.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
    let rec peel k bound e =
      match e.pexp_desc with
      | Pexp_fun (_, _, p, b) ->
        let bound =
          if k > 0 then bound
          else List.fold_left (fun s v -> SSet.add v s) bound (pat_vars [] p)
        in
        peel (k - 1) bound b
      | _ -> (bound, e)
    in
    let bound0 =
      if applied > 0 then SSet.empty
      else List.fold_left (fun s v -> SSet.add v s) SSet.empty (pat_vars [] pat)
    in
    let bound, body = peel (applied - 1) bound0 body in
    race_walk ctx ~spawn bound false body
  | Pexp_ident { txt = L.Lident f; _ } -> (
    match List.assoc_opt f env.defs with
    | Some def -> race_check ctx env ~spawn ~applied def
    | None -> ())
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt = L.Lident f; _ }; _ } as _h), args) -> (
    (* Partial application: analyze the named function's own closure with
       the applied prefix left free. *)
    match List.assoc_opt f env.defs with
    | Some def -> race_check ctx env ~spawn ~applied:(List.length args) def
    | None -> ())
  | _ -> ()

(* --------------------------------------------------------- R1–R4 checks *)

let check_ident env ctx loc lid =
  let fl = L.flatten lid in
  (match fl with
  | [ "compare" ] when not (SSet.mem "compare" env.bound) ->
    report ctx.file loc R1
      "polymorphic compare — use a typed comparison (Int.compare, Float.compare, \
       String.compare, ...)"
  | [ "Stdlib"; "compare" ] ->
    report ctx.file loc R1 "Stdlib.compare is polymorphic — use a typed comparison"
  | _ -> ());
  if ctx.clocks then
    match fl with
    | "Random" :: _ ->
      report ctx.file loc R4
        "Random.* outside bench/ and the workload generators breaks reproducibility — \
         thread an explicit Rng/seed instead"
    | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      report ctx.file loc R4
        (String.concat "." fl
        ^ " outside bench/ is wall-clock nondeterminism — keep timing in bench/ or \
           suppress with a reason")
    | _ -> ()

let rec walk env ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    check_ident env ctx e.pexp_loc txt;
    if ctx.hot then (
      match L.flatten txt with
      | [ ("min" | "max") as f ] when not (SSet.mem f env.bound) ->
        report ctx.file e.pexp_loc R1
          (Printf.sprintf
             "polymorphic %s passed as a value in a hot-path module — use Int.%s / \
              Float.%s or the module's typed field ops"
             f f f)
      | _ -> ())
  | Pexp_let (rf, vbs, body) ->
    let env' = add_vbs env vbs in
    List.iter (fun vb -> walk (if rf = Asttypes.Recursive then env' else env) ctx vb.pvb_expr) vbs;
    walk env' ctx body
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (walk env ctx) default;
    walk (add_pat env pat) ctx body
  | Pexp_function cases -> walk_cases env ctx cases
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
    walk env ctx s;
    walk_cases env ctx cases
  | Pexp_for (pat, a, b, _, body) ->
    walk env ctx a;
    walk env ctx b;
    walk (add_pat env pat) ctx body
  | Pexp_apply (head, args) ->
    let hl = lid_of head in
    (* R2 / R1 on comparison operators. *)
    (match (hl, args) with
    | Some [ (("=" | "<>" | "==" | "!=") as op) ], [ (_, a); (_, b) ] ->
      if float_literal a || float_literal b then
        report ctx.file e.pexp_loc R2
          (Printf.sprintf
             "%s against a float literal — exact float tests must spell Float.equal \
              (the Engine.arriving bug class)"
             op)
      else if ctx.hot && (op = "=" || op = "<>") && (floatish a || floatish b) then
        report ctx.file e.pexp_loc R1
          (Printf.sprintf
             "polymorphic %s on float operands in a hot-path module — use Float.equal \
              / Float.compare"
             op)
    | Some [ (("min" | "max") as f) ], _
      when ctx.hot
           && (not (SSet.mem f env.bound))
           && List.exists (fun (_, a) -> floatish a) args ->
      report ctx.file e.pexp_loc R1
        (Printf.sprintf
           "polymorphic %s on float operands in a hot-path module — use Float.%s (or \
            an explicit if/then with <)"
           f f)
    | _ -> ());
    (* R3: Hashtbl iteration without a canonicalizing sort in sight. *)
    (match hl with
    | Some [ "Hashtbl"; (("fold" | "iter") as f) ] when not ctx.sorted ->
      report ctx.file e.pexp_loc R3
        (Printf.sprintf
           "Hashtbl.%s iterates in nondeterministic order and no canonicalizing \
            List.sort/sort_uniq appears in the same expression"
           f)
    | _ -> ());
    (* R5: closures handed to spawn-like calls. *)
    (match hl with
    | Some fl -> (
      match spawn_site_name fl with
      | Some spawn -> List.iter (fun (_, a) -> race_check ctx env ~spawn a) args
      | None -> ())
    | None -> ());
    (* Context propagation for R3, then the generic descent. *)
    let arg_ctx = if is_sort_head hl then { ctx with sorted = true } else ctx in
    (match (hl, args) with
    | Some [ "|>" ], [ (_, x); (_, f) ] ->
      let x_ctx = if is_sort_head (head_lid f) then { ctx with sorted = true } else arg_ctx in
      walk env x_ctx x;
      walk env ctx f
    | Some [ "@@" ], [ (_, f); (_, x) ] ->
      let x_ctx = if is_sort_head (head_lid f) then { ctx with sorted = true } else arg_ctx in
      walk env ctx f;
      walk env x_ctx x
    | _ ->
      (* Applied min/max/compare heads are judged above at the apply node;
         walking the head ident again would double-report min/max in value
         position, so only non-ident heads descend. *)
      (match head.pexp_desc with
      | Pexp_ident { txt; _ } -> check_ident env ctx head.pexp_loc txt
      | _ -> walk env ctx head);
      List.iter (fun (_, a) -> walk env arg_ctx a) args)
  | Pexp_sequence (a, b) ->
    walk env ctx a;
    walk env ctx b
  | _ ->
    let it = { Ast_iterator.default_iterator with expr = (fun _ e' -> walk env ctx e') } in
    Ast_iterator.default_iterator.expr it e

and walk_cases env ctx cases =
  List.iter
    (fun c ->
      let env' = add_pat env c.pc_lhs in
      Option.iter (walk env' ctx) c.pc_guard;
      walk env' ctx c.pc_rhs)
    cases

(* Structure walk: keep a module-level env so [let compare = ...] and
   friends rebinding the Stdlib names are respected, and so R5 can
   resolve [Domain.spawn worker] one level. *)
let rec walk_structure env ctx str =
  ignore
    (List.fold_left
       (fun env item ->
         match item.pstr_desc with
         | Pstr_value (rf, vbs) ->
           let env' = add_vbs env vbs in
           List.iter
             (fun vb -> walk (if rf = Asttypes.Recursive then env' else env) ctx vb.pvb_expr)
             vbs;
           env'
         | Pstr_eval (e, _) ->
           walk env ctx e;
           env
         | Pstr_module { pmb_expr; _ } ->
           walk_module env ctx pmb_expr;
           env
         | Pstr_recmodule mbs ->
           List.iter (fun { pmb_expr; _ } -> walk_module env ctx pmb_expr) mbs;
           env
         | Pstr_include { pincl_mod; _ } ->
           walk_module env ctx pincl_mod;
           env
         | _ -> env)
       env str)

and walk_module env ctx me =
  match me.pmod_desc with
  | Pmod_structure str -> walk_structure env ctx str
  | Pmod_functor (_, body) -> walk_module env ctx body
  | Pmod_constraint (me, _) -> walk_module env ctx me
  | Pmod_apply (a, b) ->
    walk_module env ctx a;
    walk_module env ctx b
  | _ -> ()

(* ---------------------------------------------------------------- files *)

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n' |> Array.of_list

let selected : rule list ref = ref all_rules

let lint_file file =
  let source = In_channel.with_open_bin file In_channel.input_all in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | exception _ ->
    incr parse_errors;
    Printf.eprintf "ss_lint: %s: syntax error (file skipped)\n" file;
    0
  | str ->
    let ctx =
      { file; hot = hot_path file; clocks = not (wallclock_exempt file); sorted = false }
    in
    walk_structure empty_env ctx str;
    1

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || entry = ".git" then acc
           else collect acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* ----------------------------------------------------------------- main *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let () =
  let json = ref false in
  let list_rules = ref false in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse_args rest
    | "--rules" :: rest ->
      list_rules := true;
      parse_args rest
    | "--only" :: spec :: rest ->
      let rules =
        String.split_on_char ',' spec
        |> List.filter_map (fun t ->
               let t = String.trim t in
               if t = "" then None else rule_of_string t)
      in
      if rules = [] then begin
        Printf.eprintf "ss_lint: --only %s names no known rule\n" spec;
        exit 2
      end;
      selected := rules;
      parse_args rest
    | ("--help" | "-h") :: _ ->
      print_endline
        "usage: ss_lint [--json] [--only R1,R3|poly-compare,...] [--rules] [PATH...]\n\
         Lints every .ml under PATH... (default: lib bin bench) for determinism\n\
         and data-race hazards.  Exit 0 clean, 1 findings, 2 errors.";
      exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "ss_lint: unknown option %s\n" arg;
      exit 2
    | p :: rest ->
      paths := p :: !paths;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !list_rules then begin
    List.iter
      (fun r -> Printf.printf "%s  %-13s  %s\n" (rule_id r) (rule_name r) (rule_doc r))
      all_rules;
    exit 0
  end;
  let roots = match List.rev !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> ps in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "ss_lint: %s: no such file or directory\n" p;
        exit 2
      end)
    roots;
  let files = List.fold_left collect [] roots |> List.sort String.compare in
  let checked = List.fold_left (fun n f -> n + lint_file f) 0 files in
  (* Apply --only selection and per-line suppressions. *)
  let all = Hashtbl.fold (fun _ d acc -> d :: acc) diags [] in
  let all = List.filter (fun d -> List.mem d.rule !selected) all in
  let supp_tables = Hashtbl.create 8 in
  let suppression_table file =
    match Hashtbl.find_opt supp_tables file with
    | Some t -> t
    | None ->
      let t = suppressions file (read_lines file) in
      Hashtbl.replace supp_tables file t;
      t
  in
  let suppressed, active =
    List.partition
      (fun (d : diag) ->
        let t = suppression_table d.file in
        Hashtbl.mem t (d.line, rule_id d.rule))
      all
  in
  let active =
    List.sort
      (fun (a : diag) (b : diag) ->
        match String.compare a.file b.file with
        | 0 -> ( match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)
        | c -> c)
      active
  in
  if !json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"tool\": \"ss_lint\",\n  \"version\": 1,\n";
    Buffer.add_string buf (Printf.sprintf "  \"checked_files\": %d,\n" checked);
    Buffer.add_string buf (Printf.sprintf "  \"suppressed\": %d,\n" (List.length suppressed));
    Buffer.add_string buf "  \"diagnostics\": [";
    List.iteri
      (fun i (d : diag) ->
        if i > 0 then Buffer.add_string buf ",";
        Buffer.add_string buf
          (Printf.sprintf
             "\n    {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \
              \"name\": \"%s\", \"msg\": \"%s\"}"
             (json_escape d.file) d.line d.col (rule_id d.rule) (rule_name d.rule)
             (json_escape d.msg)))
      active;
    if active <> [] then Buffer.add_string buf "\n  ";
    Buffer.add_string buf "]\n}\n";
    print_string (Buffer.contents buf)
  end
  else begin
    List.iter
      (fun (d : diag) ->
        Printf.printf "%s:%d:%d: [%s/%s] %s\n" d.file d.line d.col (rule_id d.rule)
          (rule_name d.rule) d.msg)
      active;
    Printf.printf "ss_lint: %d file(s), %d diagnostic(s), %d suppressed\n" checked
      (List.length active) (List.length suppressed)
  end;
  if !parse_errors > 0 then exit 2;
  if active <> [] then exit 1
