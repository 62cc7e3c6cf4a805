(** Static query analysis: every diagnostic for a query in one pass.

    Layers on {!Analyzer.analyze} (binding and type errors) the checks
    that only fuzzy semantics make possible at compile time:

    - {b FSQL030} — a predicate comparing an attribute with a fuzzy
      constant whose support cannot meet the attribute's {e loaded
      domain} (the hull of every stored value's support) is always
      degree 0;
    - {b FSQL031} — a [WITH D >= z] cut above a predicate constant's
      maximum membership height is unsatisfiable: any t-norm is bounded
      by [min], so no answer in that block can exceed the height;
    - {b FSQL032} — a conjunction whose support intervals intersect to
      the empty set (checked only for attributes whose loaded values are
      all crisp — fuzzy data values can satisfy formally "contradictory"
      constraints with positive degree);
    - {b FSQL033} — a nested shape outside the paper's unnestable types
      N/J/JX/JA/JALL, reported through the [?classify] callback (wired
      to [Unnest.Classify.shape_hint] by [fsql], not by fsqld, so this
      library does not depend on the planner).

    Satisfiability findings are {e warnings}: the query is valid, merely
    provably empty (or slow). Only Error-severity diagnostics make
    {!check_string} return no bound query, fail [fsql --check], or get a
    query rejected at daemon admission. *)

type ctx

val ctx : catalog:Relational.Catalog.t -> terms:Fuzzy.Term.t -> ctx
(** Scans every catalog relation once, recording per numeric attribute
    the hull of loaded supports and whether all loaded values are crisp.
    Build it at startup (or after loading) and reuse it per query. A
    built context is read-only and checking does no storage I/O (schemas,
    file identity and the hulls only), so threads may share one with no
    lock while its catalog is not added to, even after its env closed. *)

val code_table : (string * Diagnostic.severity * string) list
(** Every stable diagnostic code with its severity and a one-line
    description — golden-tested, mirrored in DESIGN.md section 14. *)

val check_ast :
  ?classify:(Bound.query -> string option) ->
  ctx ->
  Ast.query ->
  Bound.query option * Diagnostic.t list

val check_string :
  ?classify:(Bound.query -> string option) ->
  ctx ->
  string ->
  Bound.query option * Diagnostic.t list
(** Lex + parse + {!check_ast}; lexical errors come back as [FSQL001]
    and syntax errors as [FSQL002] diagnostics instead of exceptions. *)
