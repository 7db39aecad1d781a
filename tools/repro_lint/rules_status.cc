/**
 * @file
 * api/missing-nodiscard + api/unconsumed-status: the ingest fabric's
 * backpressure statuses must be declared un-ignorable and actually
 * not ignored.
 *
 * The service's overload story is "a full ring rejects the push and
 * the caller accounts for it" — tryPush/tryIngest/tryEnqueue return
 * the accept/reject bool, and SlotMap's insert reports whether the
 * mutation happened. A dropped status silently turns
 * backpressure into data loss: the update vanishes, the drop counter
 * never moves, and the figures produced under load stop meaning what
 * the paper says they mean. Two rules close the loop:
 *
 *   - api/missing-nodiscard: every non-void try[A-Z]* function
 *     declared in a hot-path file must carry [[nodiscard]] (on at
 *     least one declaration), so the *compiler* also warns at every
 *     call site under -Werror;
 *   - api/unconsumed-status: a call to a [[nodiscard]]-indexed API
 *     whose result is discarded at statement level. The compiler
 *     already catches most of these; the rule additionally catches
 *     receivers the compiler cannot (pre-C++26 assert() bodies,
 *     macro-swallowed calls) and enforces the repo convention that
 *     an intentional drop is written "(void)call()" — visible and
 *     greppable — rather than suppressed.
 *
 * Resolution is deliberately conservative. Distinctive try[A-Z]*
 * names match when any include-reachable declaration is
 * [[nodiscard]]; common names (insert/erase/...) additionally
 * require the receiver variable to resolve, via the symbol index, to
 * the declaring class — so "ref.erase(k)" on a std::map never trips
 * the rule. Anything unresolvable degrades to silence.
 */

#include "repro_lint/lint.hh"

#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "repro_lint/symbol_index.hh"

namespace repro_lint
{

namespace
{

/** "tryPush", "tryIngest", ... — the repo's status-API spelling. */
bool
isTryName(std::string_view s)
{
    return s.size() > 3 && s.substr(0, 3) == "try" && s[3] >= 'A'
        && s[3] <= 'Z';
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/** Index of the token opening the ")" / "]" at @p close, or kNpos. */
std::size_t
matchBackward(const std::vector<const Token*>& sig, std::size_t close)
{
    const std::string& c = sig[close]->spelling;
    std::string_view o;
    if (c == ")")
        o = "(";
    else if (c == "]")
        o = "[";
    else
        return kNpos;
    int depth = 0;
    for (std::size_t i = close + 1; i-- > 0;) {
        if (sig[i]->spelling == c)
            ++depth;
        else if (sig[i]->spelling == o && --depth == 0)
            return i;
    }
    return kNpos;
}

/**
 * First token of the receiver chain ending at the call name sig[i]:
 * "rings_[p]->tryPush" starts at "rings_", "a.b.insert" at "a".
 * Returns @p i itself for an unqualified call.
 */
std::size_t
chainStart(const std::vector<const Token*>& sig, std::size_t i)
{
    std::size_t start = i;
    while (start >= 2) {
        const std::string& p = sig[start - 1]->spelling;
        if (p != "." && p != "->")
            break;
        const std::size_t before = start - 2;
        if (sig[before]->kind == TokKind::Identifier) {
            start = before;
            continue;
        }
        if (sig[before]->spelling == ")"
            || sig[before]->spelling == "]") {
            const std::size_t open = matchBackward(sig, before);
            if (open == kNpos)
                return start;
            if (open > 0
                && sig[open - 1]->kind == TokKind::Identifier) {
                start = open - 1;
            } else {
                start = open;
            }
            continue;
        }
        break;
    }
    return start;
}

/**
 * True when the call whose name is sig[i] and whose argument list
 * closes at sig[close] is a statement-level discard: the ';' follows
 * the ')' directly and the receiver chain begins the statement. A
 * "(void)" cast in front is the sanctioned explicit discard and does
 * not count.
 */
bool
isDiscarded(const std::vector<const Token*>& sig, std::size_t i,
            std::size_t close)
{
    if (close + 1 >= sig.size() || sig[close + 1]->spelling != ";")
        return false;
    const std::size_t start = chainStart(sig, i);
    if (start == 0)
        return true;
    const std::string& p = sig[start - 1]->spelling;
    if (p == ";" || p == "{" || p == "}" || p == "else" || p == "do"
        || p == ":")
        return true;
    if (p == ")") {
        // Either "(void) expr;" — sanctioned — or the ')' closing an
        // if/for/while condition, which makes this the statement.
        const std::size_t open = matchBackward(sig, start - 1);
        const bool void_cast = open != kNpos && start - 1 == open + 2
                && sig[open + 1]->spelling == "void";
        return !void_cast;
    }
    return false;
}

} // namespace

void
checkStatusUse(const Tree& tree, const SymbolIndex& index,
               std::vector<Finding>& out)
{
    // --- api/missing-nodiscard: audit the declarations -------------
    std::map<std::pair<std::string, std::string>,
             std::vector<const FunctionDecl*>>
            groups;
    for (const FunctionDecl& d : index.functions)
        if (isTryName(d.name) && !d.returns_void)
            groups[{d.cls, d.name}].push_back(&d);

    for (const auto& [key, decls] : groups) {
        bool any_nodiscard = false;
        for (const FunctionDecl* d : decls)
            any_nodiscard = any_nodiscard || d->nodiscard;
        if (any_nodiscard)
            continue;
        const FunctionDecl* where = nullptr;
        for (const FunctionDecl* d : decls) {
            const SourceFile* f = tree.find(d->file);
            if (f == nullptr || !f->hot_path)
                continue;
            if (where == nullptr || d->file < where->file
                || (d->file == where->file && d->line < where->line))
                where = d;
        }
        if (where == nullptr)
            continue;
        const std::string qual = key.first.empty()
                ? key.second
                : key.first + "::" + key.second;
        emitFinding(*tree.find(where->file), where->line,
                    "api/missing-nodiscard",
                    "status API '" + qual
                            + "()' in a hot-path file is not"
                              " [[nodiscard]]; its accept/reject"
                              " result must be un-ignorable",
                    out);
    }

    // --- api/unconsumed-status: audit the call sites ---------------
    std::set<std::string> nodiscard_names;
    for (const FunctionDecl& d : index.functions)
        if (d.nodiscard)
            nodiscard_names.insert(d.name);

    for (const SourceFile& f : tree.files) {
        const std::vector<const Token*> sig = significantTokens(f);
        for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
            if (sig[i]->kind != TokKind::Identifier
                || sig[i + 1]->spelling != "(")
                continue;
            const std::string& name = sig[i]->spelling;
            if (nodiscard_names.count(name) == 0)
                continue;

            const FunctionDecl* target = nullptr;
            if (isTryName(name)) {
                // Distinctive name: any reachable [[nodiscard]]
                // declaration claims the call.
                for (const FunctionDecl* d : index.functionsNamed(name))
                    if (d->nodiscard && index.reachable(f.rel, d->file))
                        target = target == nullptr ? d : target;
            } else {
                // Common name: the receiver must resolve to the
                // declaring class.
                if (i < 2
                    || (sig[i - 1]->spelling != "."
                        && sig[i - 1]->spelling != "->")
                    || sig[i - 2]->kind != TokKind::Identifier)
                    continue;
                std::set<std::string> recv_types;
                for (const VarDecl* v :
                     index.varsNamed(f.rel, sig[i - 2]->spelling))
                    recv_types.insert(v->type);
                for (const FunctionDecl* d : index.functionsNamed(name))
                    if (d->nodiscard && !d->cls.empty()
                        && recv_types.count(d->cls) > 0
                        && index.reachable(f.rel, d->file))
                        target = target == nullptr ? d : target;
            }
            if (target == nullptr)
                continue;

            const std::size_t close = matchForward(sig, i + 1);
            if (close >= sig.size() || !isDiscarded(sig, i, close))
                continue;

            const std::string qual = target->cls.empty()
                    ? target->name
                    : target->cls + "::" + target->name;
            emitFinding(f, sig[i]->line, "api/unconsumed-status",
                        "discarded [[nodiscard]] status from '" + qual
                                + "()'; consume the result or write"
                                  " an explicit (void) cast",
                        out);
        }
    }
}

} // namespace repro_lint
