(** Lowering: typed AST -> mid-level IR, plus the front door that chains
    the whole front end.

    The cardinal rule: every user variable stays in memory (explicit
    Load/Store on its symbol).  Lowering never caches a value in a temp
    across statements — register promotion (lib/core) is the pass that
    earns that, so the baseline-vs-speculative comparison starts from the
    same memory-form IR.  Temps are single-assignment expression
    intermediates; value merges (&&, ||, ?:) go through compiler scratch
    locals to keep that discipline. *)

exception Lower_error of string

(** [error_message e] renders a front-end error of {!compile_source}:
    [LINE:COL: message] for lexical, syntax and type errors, the message
    itself for {!Lower_error}.  [None] for every other exception. *)
val error_message : exn -> string option

(** Parse, typecheck, lower, split critical edges, and verify.  Critical
    edges are split here — before any profiling run — so the block set
    (hence the profile's block counts) is identical between the profiling
    compile and the optimizing compile.

    @raise Lexer.Lex_error on lexical errors
    @raise Parser.Parse_error on syntax errors
    @raise Typecheck.Type_error on type errors
    @raise Lower_error on constructs lowering rejects, or no [main]
    @raise Srp_ir.Verify.Ill_formed if lowering produced bad IR (a bug) *)
val compile_source : string -> Srp_ir.Program.t
