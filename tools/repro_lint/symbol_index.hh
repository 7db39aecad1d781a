/**
 * @file
 * Cross-translation-unit symbol index for repro-lint.
 *
 * One pass over every file's token stream (token.hh) collects the
 * facts the PR-9 rule families need to reason *across* files:
 *
 *   - function declarations (free and member) with their enclosing
 *     class, [[nodiscard]] attribute, and void-ness — so
 *     api/unconsumed-status can resolve a call by name + receiver
 *     type and api/missing-nodiscard can audit every try*() status
 *     API;
 *   - variable/member declarations whose type is std::atomic or a
 *     class that declares indexed methods — the receiver-resolution
 *     table that keeps "x.load()" findings to actual atomics and
 *     "m.insert(k, s)" findings to actual SlotMaps;
 *   - the quoted-include graph with transitive reachability, so a
 *     call site is only matched against declarations its TU can
 *     actually see;
 *   - every REPRO_* environment-variable string literal passed to an
 *     env reader (envRaw/envUIntOr/envDoubleOr/envFlagOr/getenv),
 *     feeding api/env-doc-drift.
 *
 * Everything here is heuristic — there is no preprocessor and no
 * template instantiation — but the heuristics are chosen so a miss
 * degrades to silence (no finding), never to a false positive: a
 * call is only flagged when its receiver resolves to an indexed
 * declaration reachable through the include graph.
 */

#ifndef DFCM_TOOLS_REPRO_LINT_SYMBOL_INDEX_HH
#define DFCM_TOOLS_REPRO_LINT_SYMBOL_INDEX_HH

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "repro_lint/lint.hh"

namespace repro_lint
{

/** A function (or member function) declaration. */
struct FunctionDecl
{
    std::string name;
    std::string cls;   //!< enclosing class/struct name; "" for free
    std::string file;  //!< tree-relative path of the declaration
    int line = 0;
    bool nodiscard = false;     //!< carries [[nodiscard]]
    bool returns_void = false;  //!< declared return type is void
};

/** A variable or data-member declaration with an indexed type. */
struct VarDecl
{
    std::string name;
    /** Qualified type head, template arguments stripped:
     *  "std::atomic", "SlotMap", ... */
    std::string type;
    std::string file;
    int line = 0;
};

/** One REPRO_* string literal passed to an env reader. */
struct EnvUse
{
    std::string var;  //!< e.g. "REPRO_SERVICE_SHARDS"
    std::string file;
    int line = 0;
};

struct SymbolIndex
{
    std::vector<FunctionDecl> functions;
    std::vector<VarDecl> vars;
    std::vector<EnvUse> env_uses;
    /** file -> directly included tree files (resolved rel paths). */
    std::map<std::string, std::vector<std::string>> includes;
    /** file -> include closure (reflexive: contains the file itself). */
    std::map<std::string, std::set<std::string>> reach;

    /** True when @p to is in @p from's include closure. */
    bool reachable(std::string_view from, std::string_view to) const;

    /** All indexed declarations of @p name. */
    std::vector<const FunctionDecl*>
    functionsNamed(std::string_view name) const;

    /** All indexed variables named @p name whose declaration file is
     *  reachable from @p from. */
    std::vector<const VarDecl*>
    varsNamed(std::string_view from, std::string_view name) const;
};

SymbolIndex buildSymbolIndex(const Tree& tree);

// --- token-navigation helpers shared by the index and the rules ----

/** @p f's tokens with comments and preprocessor tokens dropped — the
 *  view declaration/expression scanning runs on. Pointers alias
 *  f.tokens. */
std::vector<const Token*> significantTokens(const SourceFile& f);

/** Index of the token closing the "(" / "[" / "{" at @p open, or
 *  sig.size() when unbalanced. */
std::size_t matchForward(const std::vector<const Token*>& sig,
                         std::size_t open);

/**
 * Index one past the ">" closing the "<" at @p at, treating "<<" and
 * ">>" as two angles (template-argument skipping). Returns @p at when
 * the list does not close before a ';' or brace — i.e. when the "<"
 * was a comparison, not a template-argument list.
 */
std::size_t skipTemplateArgs(const std::vector<const Token*>& sig,
                             std::size_t at);

} // namespace repro_lint

#endif // DFCM_TOOLS_REPRO_LINT_SYMBOL_INDEX_HH
