/*
 * The native netlist optimizer of repro.synth.optimize (DESIGN.md
 * section 25).
 *
 * One call runs optimize_netlist's passes over a netlist stored flat:
 * each pass levelizes, seeds the first pass with the ternary
 * sequential constants, sweeps the gates in topological order, applies
 * the local DFF rule, traces liveness back from the primary outputs and
 * rebuilds.  The Python optimizer in optimize.py is the reference: the
 * netlist built here must pickle to the same bytes as the one it builds,
 * so each step follows its rules in its order.
 *
 * Within a pass a net or constant is a reference: the nets are 0 up to
 * nets - 1, constant 0 is nets and constant 1 is nets + 1, so the alias
 * map is one int32 per reference (-1 for none) and resolving never
 * needs a branch on constants.
 *
 * repro.synth.native compiles this file once per source digest and loads
 * it with ctypes.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* GateKind.code, in the order of repro/synth/gates.py. */
enum { CONST0, CONST1, BUF, INV, AND2, OR2, NAND2, NOR2, XOR2, XNOR2, MUX2,
       DFF, KINDS };
static const int32_t ARITY[KINDS] = {0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 1};

/* no_optimize's results: OK, or why the caller runs the Python
 * optimizer instead (which raises on a cycle). */
enum { OK = 0, CYCLE = 1, MALFORMED = 2, NO_MEMORY = 3 };

/* The caller's netlist and the optimized one (Job in native.py). */
typedef struct {
    /* The input: gate g has kind kinds[g], output net outputs[g] and
     * initial state inits[g]; its ARITY[kinds[g]] input nets follow the
     * previous gate's in inputs, n_inputs in all.  pins holds the input
     * buses' nets (in_pins of them), then the output buses'. */
    int32_t gates, nets, n_inputs, in_pins, out_pins, max_passes;
    const uint8_t *kinds;
    const int32_t *inputs, *outputs, *inits, *pins;
    /* The output, in buffers the caller sized for gates + 2 gates,
     * n_inputs inputs, in_pins + out_pins pins and nets nets.  The
     * inputs are grouped by arity: the one-input gates' inputs in gate
     * order, then the two-input gates' pairs, then the three-input
     * gates' triples.  new_of[n] is the new net that input net n
     * became (it carries n's name), -1 for none. */
    uint8_t *new_kinds;
    int32_t *new_inputs, *new_outputs, *new_inits, *new_pins, *new_of;
    int32_t new_gates, new_nets, ones, twos, const0, const1;
} Job;

/* A netlist as one pass reads or writes it. */
typedef struct {
    int32_t gates, nets, const0, const1;
    uint8_t *kind;
    /* Gate g's inputs are in[first[g]] up to in[first[g + 1]]. */
    int32_t *first, *in, *out, *init;
    int32_t *pins;
    int32_t *origin;  /* each net's net in the caller's netlist */
} Graph;

/* The work arrays of a pass, sized for the first pass: no later pass
 * has more gates, nets or inputs. */
typedef struct {
    int32_t *driver;               /* net -> its gate, or -1 */
    int32_t *order;                /* the combinational gates, levelized */
    int32_t *frames;               /* the search: (gate, next input) pairs */
    uint8_t *state;
    uint8_t *value;                /* ternary value of each net */
    int32_t *last, *watcher, *earlier, *turned;
    int32_t *alias;                /* reference -> target, or -1 */
    int32_t *kept_of;              /* net -> its kept cell, or -1 */
    uint8_t *kept_kind;
    int32_t *kept_in, *kept_out;   /* kept cell k reads kept_in[3k..] */
    int32_t *table;                /* the structural hash: kept cells */
    uint32_t table_mask;
    uint8_t *live;
    int32_t *stack;
    int32_t *net_map;              /* old net -> new net, or -1 */
} Work;

/* Every block one call allocates, freed together. */
typedef struct {
    void *block[48];
    int count, failed;
} Arena;

static void *take(Arena *a, size_t count, size_t size)
{
    void *p = a->count < 48 ? malloc(count ? count * size : 1) : NULL;
    if (p == NULL)
        a->failed = 1;
    else
        a->block[a->count++] = p;
    return p;
}

static void release(Arena *a)
{
    for (int i = 0; i < a->count; i++)
        free(a->block[i]);
}

/* -- levelize ----------------------------------------------------------- */

/* A depth-first post-order from each gate in gate order, visiting a
 * gate's drivers in input order (Netlist._search). */
static int search(const Graph *g, Work *w, int32_t *count)
{
    int32_t n = 0;
    uint8_t *state = w->state;
    int32_t *frame = w->frames;
    memset(state, 0, (size_t)g->gates);
    for (int32_t root = 0; root < g->gates; root++) {
        if (g->kind[root] == DFF || state[root])
            continue;
        state[root] = 1;
        frame[0] = root;
        frame[1] = g->first[root];
        int32_t depth = 1;
        while (depth) {
            int32_t gate = frame[2 * depth - 2];
            int32_t *next = &frame[2 * depth - 1];
            int pushed = 0;
            while (*next < g->first[gate + 1]) {
                int32_t net = g->in[(*next)++];
                int32_t up = w->driver[net];
                if (up < 0 || g->kind[up] == DFF || state[up] == 2)
                    continue;
                if (state[up])
                    return CYCLE;
                state[up] = 1;
                frame[2 * depth] = up;
                frame[2 * depth + 1] = g->first[up];
                depth++;
                pushed = 1;
                break;
            }
            if (!pushed) {
                depth--;
                state[gate] = 2;
                w->order[n++] = gate;
            }
        }
    }
    *count = n;
    return OK;
}

/* The combinational gates in topological order (Netlist._levelize):
 * gate order when every driver precedes its reader, else the search. */
static int levelize(const Graph *g, Work *w, int32_t *count)
{
    int32_t n = 0;
    for (int32_t i = 0; i < g->gates; i++) {
        if (g->kind[i] == DFF)
            continue;
        for (int32_t p = g->first[i]; p < g->first[i + 1]; p++) {
            int32_t up = w->driver[g->in[p]];
            if (up >= i && g->kind[up] != DFF)
                return search(g, w, count);
        }
        w->order[n++] = i;
    }
    *count = n;
    return OK;
}

/* -- the ternary sequential-constant analysis --------------------------- */

enum { X = 2 };
static const uint8_t NOT[3] = {1, 0, X};
/* Two-input truth tables over {0, 1, X}, indexed by 3 * a + b. */
static const uint8_t TABLE[KINDS][9] = {
    [AND2] = {0, 0, 0, 0, 1, X, 0, X, X},
    [OR2] = {0, 1, X, 1, 1, 1, X, 1, X},
    [NAND2] = {1, 1, 1, 1, 0, X, 1, X, X},
    [NOR2] = {1, 0, X, 0, 0, 0, X, 0, X},
    [XOR2] = {0, 1, X, 1, 0, X, X, X, X},
    [XNOR2] = {1, 0, X, 0, 1, X, X, X, X},
};

static uint8_t ternary(const Graph *g, int32_t gate, const uint8_t *v)
{
    const int32_t *in = g->in + g->first[gate];
    int kind = g->kind[gate];
    switch (kind) {
    case AND2: case OR2: case NAND2: case NOR2: case XOR2: case XNOR2:
        return TABLE[kind][3 * v[in[0]] + v[in[1]]];
    case INV:
        return NOT[v[in[0]]];
    case MUX2:
        if (v[in[0]] == X)
            return v[in[1]] == v[in[2]] ? v[in[1]] : X;
        return v[in[0]] ? v[in[1]] : v[in[2]];
    case BUF:
        return v[in[0]];
    case CONST0:
        return 0;
    case CONST1:
        return 1;
    default:
        return X;
    }
}

/* Every net's value over {0, 1, X} at the greatest fixpoint, as
 * sequential_constants computes it: one sweep with every DFF at its
 * initial value and the primary inputs at X, then X spread along the
 * fanout of each register the sweep contradicts. */
static void sequential_constants(const Graph *g, Work *w, int32_t ordered)
{
    uint8_t *v = w->value;
    int32_t *last = w->last, edges = 0, turned = 0;
    memset(v, X, (size_t)g->nets);
    for (int32_t net = 0; net < g->nets; net++)
        last[net] = -1;
    for (int32_t i = 0; i < g->gates; i++)
        if (g->kind[i] == DFF)
            v[g->out[i]] = g->init[i] != 0;
    for (int32_t k = 0; k < ordered; k++) {
        int32_t i = w->order[k];
        uint8_t known = v[g->out[i]] = ternary(g, i, v);
        if (known == X)
            continue;
        for (int32_t p = g->first[i]; p < g->first[i + 1]; p++) {
            int32_t net = g->in[p];
            if (v[net] != X) {
                w->earlier[edges] = last[net];
                last[net] = edges;
                w->watcher[edges++] = i;
            }
        }
    }
    for (int32_t i = 0; i < g->gates; i++) {
        if (g->kind[i] != DFF)
            continue;
        int32_t d = g->in[g->first[i]], q = g->out[i];
        if (v[d] == v[q]) {
            w->earlier[edges] = last[d];
            last[d] = edges;
            w->watcher[edges++] = i;
        } else {
            v[q] = X;
            w->turned[turned++] = q;
        }
    }
    while (turned) {
        int32_t edge = last[w->turned[--turned]];
        while (edge >= 0) {
            int32_t i = w->watcher[edge];
            edge = w->earlier[edge];
            int32_t out = g->out[i];
            if (v[out] == X)
                continue;
            if (g->kind[i] == DFF || ternary(g, i, v) == X) {
                v[out] = X;
                w->turned[turned++] = out;
            }
        }
    }
}

/* -- the rewrite --------------------------------------------------------- */

/* _simplify on resolved inputs c[]: -1 with *target set when the output
 * aliases a reference, else the kind of the cell kept, with c[0] its
 * input when the gate became an inverter. */
static int simplify(int kind, int32_t *c, int32_t zero, int32_t one,
                    int32_t *target)
{
    int32_t a = c[0], b = c[1];
    int inverting;
#define ALIAS(ref) do { *target = (ref); return -1; } while (0)
#define INVERT(ref) do { c[0] = (ref); return INV; } while (0)
    switch (kind) {
    case BUF:
        ALIAS(a);
    case INV:
        if (a == zero)
            ALIAS(one);
        if (a == one)
            ALIAS(zero);
        return INV;
    case AND2: case NAND2:
        inverting = kind == NAND2;
        if (a == zero || b == zero)
            ALIAS(inverting ? one : zero);
        if (a == one && b == one)
            ALIAS(inverting ? zero : one);
        if (a == one) {
            if (inverting)
                INVERT(b);
            ALIAS(b);
        }
        if (b == one || a == b) {
            if (inverting)
                INVERT(a);
            ALIAS(a);
        }
        return kind;
    case OR2: case NOR2:
        inverting = kind == NOR2;
        if (a == one || b == one)
            ALIAS(inverting ? zero : one);
        if (a == zero && b == zero)
            ALIAS(inverting ? one : zero);
        if (a == zero) {
            if (inverting)
                INVERT(b);
            ALIAS(b);
        }
        if (b == zero || a == b) {
            if (inverting)
                INVERT(a);
            ALIAS(a);
        }
        return kind;
    case XOR2: case XNOR2:
        inverting = kind == XNOR2;
        if (a >= zero && b >= zero)
            ALIAS(((a == one) ^ (b == one) ^ inverting) ? one : zero);
        if (a == b)
            ALIAS(inverting ? one : zero);
        for (int swap = 0; swap < 2; swap++) {
            int32_t x = swap ? b : a, y = swap ? a : b;
            if (x == zero) {
                if (inverting)
                    INVERT(y);
                ALIAS(y);
            }
            if (x == one) {
                if (inverting)
                    ALIAS(y);
                INVERT(y);
            }
        }
        return kind;
    case MUX2: {
        int32_t sel = a, t = b, f = c[2];
        if (sel == one)
            ALIAS(t);
        if (sel == zero)
            ALIAS(f);
        if (t == f)
            ALIAS(t);
        if (t == one && f == zero)
            ALIAS(sel);
        if (t == zero && f == one)
            INVERT(sel);
        return kind;
    }
    default:
        return kind;
    }
#undef ALIAS
#undef INVERT
}

static uint32_t hash_cell(int kind, const int32_t *c)
{
    uint64_t h = ((uint64_t)(uint32_t)c[0] << 32 | (uint32_t)c[1])
                 ^ ((uint64_t)(uint32_t)c[2] * 0x9e3779b97f4a7c15ULL)
                 ^ ((uint64_t)kind << 58);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return (uint32_t)h;
}

/* The kept cell equal to (kind, c[0..2]), first wins: a new cell is
 * kept as cell `fresh` and returns it. */
static int32_t hash_first(Work *w, int kind, const int32_t *c, int32_t fresh)
{
    uint32_t slot = hash_cell(kind, c) & w->table_mask;
    for (;;) {
        int32_t k = w->table[slot];
        if (k < 0) {
            w->table[slot] = fresh;
            return fresh;
        }
        const int32_t *kc = w->kept_in + 3 * (size_t)k;
        if (w->kept_kind[k] == kind && kc[0] == c[0] && kc[1] == c[1]
                && kc[2] == c[2])
            return k;
        slot = (slot + 1) & w->table_mask;
    }
}

static int32_t resolve(const int32_t *alias, int32_t ref)
{
    while (alias[ref] >= 0)
        ref = alias[ref];
    return ref;
}

/* -- the rebuild --------------------------------------------------------- */

static void append(Graph *b, int kind, const int32_t *in, int32_t out,
                   int32_t init)
{
    int32_t g = b->gates++, at = b->first[g];
    b->kind[g] = (uint8_t)kind;
    for (int32_t j = 0; j < ARITY[kind]; j++)
        b->in[at + j] = in[j];
    b->first[g + 1] = at + ARITY[kind];
    b->out[g] = out;
    b->init[g] = init;
}

/* The new net of reference `ref` (resolved first); a constant's gate is
 * added at its first use, as Netlist.const adds it. */
static int32_t map_net(const Graph *a, Graph *b, Work *w, int32_t ref)
{
    ref = resolve(w->alias, ref);
    if (ref >= a->nets) {
        int one = ref == a->nets + 1;
        int32_t *net = one ? &b->const1 : &b->const0;
        if (*net < 0) {
            *net = b->nets++;
            b->origin[*net] = -1;
            append(b, one ? CONST1 : CONST0, NULL, *net, 0);
        }
        return *net;
    }
    if (w->net_map[ref] < 0) {
        w->net_map[ref] = b->nets++;
        b->origin[w->net_map[ref]] = a->origin[ref];
    }
    return w->net_map[ref];
}

/* One pass of _one_pass from `a` into `b`; *again says whether the
 * local DFF rule asks for another. */
static int one_pass(const Graph *a, Graph *b, Work *w, int seed,
                    int in_pins, int out_pins, int *again)
{
    int32_t zero = a->nets, one = a->nets + 1, ordered, kept = 0;
    int32_t *alias = w->alias;
    for (int32_t net = 0; net < a->nets; net++)
        w->driver[net] = -1;
    for (int32_t i = 0; i < a->gates; i++)
        w->driver[a->out[i]] = i;
    if (levelize(a, w, &ordered) != OK)
        return CYCLE;
    for (int32_t ref = 0; ref < a->nets + 2; ref++)
        alias[ref] = w->kept_of[ref] = -1;

    if (seed) {
        /* The ternary constants seed the alias map, but not a constant
         * gate's output: the sweep aliases it. */
        sequential_constants(a, w, ordered);
        for (int32_t i = 0; i < a->gates; i++) {
            uint8_t known = w->value[a->out[i]];
            if (known != X && a->kind[i] != CONST0 && a->kind[i] != CONST1)
                alias[a->out[i]] = known ? one : zero;
        }
    }

    for (uint32_t slot = 0; slot <= w->table_mask; slot++)
        w->table[slot] = -1;
    for (int32_t k = 0; k < ordered; k++) {
        int32_t i = w->order[k], out = a->out[i], target;
        int kind = a->kind[i];
        if (kind == CONST0 || kind == CONST1) {
            alias[out] = kind == CONST0 ? zero : one;
            continue;
        }
        /* Every alias target is final during the sweep: one lookup. */
        int32_t c[3] = {-1, -1, -1};
        for (int32_t j = 0; j < ARITY[kind]; j++) {
            int32_t net = a->in[a->first[i] + j];
            c[j] = alias[net] >= 0 ? alias[net] : net;
        }
        kind = simplify(kind, c, zero, one, &target);
        if (kind < 0) {
            alias[out] = target;
            continue;
        }
        if (kind == INV) {
            c[1] = c[2] = -1;
            /* Double-inverter collapse, on the upstream gate's
             * rewritten kind. */
            int32_t up = w->kept_of[c[0]];
            if (up >= 0 && w->kept_kind[up] == INV) {
                alias[out] = w->kept_in[3 * (size_t)up];
                continue;
            }
        }
        w->kept_kind[kept] = (uint8_t)kind;
        memcpy(w->kept_in + 3 * (size_t)kept, c, sizeof c);
        int32_t first = hash_first(w, kind, c, kept);
        if (first != kept) {
            alias[out] = w->kept_out[first];
        } else {
            w->kept_out[kept] = out;
            w->kept_of[out] = kept++;
        }
    }

    /* The local DFF rule: D constant and equal to the initial value. */
    *again = 0;
    for (int32_t i = 0; i < a->gates; i++) {
        if (a->kind[i] != DFF)
            continue;
        int32_t d = resolve(alias, a->in[a->first[i]]);
        if ((d == zero && a->init[i] == 0) || (d == one && a->init[i] == 1)) {
            int32_t q = a->out[i];
            if (alias[q] < 0)
                *again = 1;  /* its readers saw a register */
            alias[q] = d;
        }
    }

    /* Liveness, traced back from the primary outputs. */
    memset(w->live, 0, (size_t)a->nets + 2);
    int32_t depth = 0;
    for (int32_t p = 0; p < out_pins; p++)
        w->stack[depth++] = a->pins[in_pins + p];
    while (depth) {
        int32_t net = resolve(alias, w->stack[--depth]);
        if (net >= a->nets || w->live[net])
            continue;
        w->live[net] = 1;
        int32_t k = w->kept_of[net];
        if (k >= 0) {
            for (int32_t j = 0; j < ARITY[w->kept_kind[k]]; j++)
                w->stack[depth++] = w->kept_in[3 * (size_t)k + j];
        } else if (w->driver[net] >= 0) {
            int32_t i = w->driver[net];
            for (int32_t p = a->first[i]; p < a->first[i + 1]; p++)
                w->stack[depth++] = a->in[p];
        }
    }

    /* The rebuild: inputs, DFFs (D before Q), kept gates (inputs before
     * output), outputs. */
    for (int32_t net = 0; net < a->nets; net++)
        w->net_map[net] = -1;
    b->gates = b->nets = 0;
    b->first[0] = 0;
    b->const0 = b->const1 = -1;
    for (int32_t p = 0; p < in_pins; p++)
        b->pins[p] = map_net(a, b, w, a->pins[p]);
    for (int32_t i = 0; i < a->gates; i++) {
        int32_t q = a->out[i];
        if (a->kind[i] != DFF || alias[q] >= 0 || !w->live[q])
            continue;
        int32_t d = map_net(a, b, w, a->in[a->first[i]]);
        append(b, DFF, &d, map_net(a, b, w, q), a->init[i]);
    }
    for (int32_t k = 0; k < kept; k++) {
        int32_t out = w->kept_out[k], c[3];
        if (!w->live[out])
            continue;
        int kind = w->kept_kind[k];
        for (int32_t j = 0; j < ARITY[kind]; j++)
            c[j] = map_net(a, b, w, w->kept_in[3 * (size_t)k + j]);
        append(b, kind, c, map_net(a, b, w, out), 0);
    }
    for (int32_t p = 0; p < out_pins; p++)
        b->pins[in_pins + p] = map_net(a, b, w, a->pins[in_pins + p]);
    return OK;
}

/* -- the entry point ----------------------------------------------------- */

static Graph graph(Arena *arena, int32_t gates, int32_t nets,
                   int32_t inputs, int32_t pins)
{
    Graph g = {0};
    g.kind = take(arena, (size_t)gates, 1);
    g.first = take(arena, (size_t)gates + 1, 4);
    g.in = take(arena, (size_t)inputs, 4);
    g.out = take(arena, (size_t)gates, 4);
    g.init = take(arena, (size_t)gates, 4);
    g.pins = take(arena, (size_t)pins, 4);
    g.origin = take(arena, (size_t)nets, 4);
    return g;
}

/* Check the caller's netlist and copy it into `g`: MALFORMED when a
 * kind, an arity count or a net is out of range, or a net has two
 * drivers. */
static int load(const Job *job, Graph *g, int32_t *driver)
{
    int32_t pins = job->in_pins + job->out_pins, at = 0;
    g->gates = job->gates;
    g->nets = job->nets;
    g->first[0] = 0;
    for (int32_t net = 0; net < job->nets; net++) {
        driver[net] = -1;
        g->origin[net] = net;
    }
    for (int32_t i = 0; i < job->gates; i++) {
        int kind = job->kinds[i];
        int32_t out = job->outputs[i];
        if (kind >= KINDS || at + ARITY[kind] > job->n_inputs
                || out < 0 || out >= job->nets || driver[out] >= 0)
            return MALFORMED;
        driver[out] = i;
        for (int32_t j = 0; j < ARITY[kind]; j++, at++) {
            int32_t net = job->inputs[at];
            if (net < 0 || net >= job->nets)
                return MALFORMED;
            g->in[at] = net;
        }
        g->kind[i] = (uint8_t)kind;
        g->first[i + 1] = at;
        g->out[i] = out;
        g->init[i] = job->inits[i];
    }
    if (at != job->n_inputs)
        return MALFORMED;
    for (int32_t p = 0; p < pins; p++) {
        if (job->pins[p] < 0 || job->pins[p] >= job->nets)
            return MALFORMED;
        g->pins[p] = job->pins[p];
    }
    return OK;
}

/* Write the optimized netlist `g` into the job's buffers. */
static void store(Job *job, const Graph *g)
{
    int32_t count[4] = {0, 0, 0, 0};
    for (int32_t i = 0; i < g->gates; i++)
        count[ARITY[g->kind[i]]]++;
    int32_t at[4] = {0, 0, count[1], count[1] + 2 * count[2]};
    for (int32_t i = 0; i < g->gates; i++) {
        int32_t arity = ARITY[g->kind[i]];
        for (int32_t j = 0; j < arity; j++)
            job->new_inputs[at[arity]++] = g->in[g->first[i] + j];
    }
    for (int32_t i = 0; i < g->gates; i++) {
        job->new_kinds[i] = g->kind[i];
        job->new_outputs[i] = g->out[i];
        job->new_inits[i] = g->init[i];
    }
    for (int32_t p = 0; p < job->in_pins + job->out_pins; p++)
        job->new_pins[p] = g->pins[p];
    for (int32_t net = 0; net < job->nets; net++)
        job->new_of[net] = -1;
    for (int32_t net = 0; net < g->nets; net++)
        if (g->origin[net] >= 0)
            job->new_of[g->origin[net]] = net;
    job->new_gates = g->gates;
    job->new_nets = g->nets;
    job->ones = count[1];
    job->twos = count[2];
    job->const0 = g->const0;
    job->const1 = g->const1;
}

/* optimize_netlist(netlist, max_passes) on the job's netlist.  No pass
 * adds a net, a gate or an input beyond the constants' two, so every
 * array is sized once, for the input. */
int no_optimize(Job *job)
{
    Arena arena = {{0}, 0, 0};
    int32_t gates = job->gates + 2, nets = job->nets + 2;
    int32_t inputs = job->n_inputs, pins = job->in_pins + job->out_pins;
    Graph a = graph(&arena, gates, nets, inputs, pins);
    Graph b = graph(&arena, gates, nets, inputs, pins);
    Work w;
    w.driver = take(&arena, (size_t)nets, 4);
    w.order = take(&arena, (size_t)gates, 4);
    w.frames = take(&arena, 2 * (size_t)gates, 4);
    w.state = take(&arena, (size_t)gates, 1);
    w.value = take(&arena, (size_t)nets, 1);
    w.last = take(&arena, (size_t)nets, 4);
    w.watcher = take(&arena, (size_t)inputs, 4);
    w.earlier = take(&arena, (size_t)inputs, 4);
    w.turned = take(&arena, (size_t)nets, 4);
    w.alias = take(&arena, (size_t)nets + 2, 4);
    w.kept_of = take(&arena, (size_t)nets + 2, 4);
    w.kept_kind = take(&arena, (size_t)gates, 1);
    w.kept_in = take(&arena, 3 * (size_t)gates, 4);
    w.kept_out = take(&arena, (size_t)gates, 4);
    uint32_t size = 16;
    while (size < 2 * (uint32_t)gates)
        size *= 2;
    w.table = take(&arena, size, 4);
    w.table_mask = size - 1;
    w.live = take(&arena, (size_t)nets + 2, 1);
    w.stack = take(&arena, (size_t)job->out_pins + 3 * (size_t)nets, 4);
    w.net_map = take(&arena, (size_t)nets, 4);
    int status = arena.failed ? NO_MEMORY : load(job, &a, w.driver);
    for (int pass = 0; status == OK && pass < job->max_passes; pass++) {
        int again;
        status = one_pass(&a, &b, &w, pass == 0, job->in_pins,
                          job->out_pins, &again);
        Graph done = b;
        b = a;
        a = done;
        if (!again)
            break;
    }
    if (status == OK)
        store(job, &a);
    release(&arena);
    return status;
}
