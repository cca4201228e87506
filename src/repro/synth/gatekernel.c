/*
 * The native gate kernel of repro.synth.gatesim (DESIGN.md section 21).
 *
 * One generic sweep over a netlist's level schedule, stored flat by
 * repro.synth.netlist.LevelSchedule: one uint64 lane word per net (bit L
 * is lane L), and int32 arrays of runs and cells.  It dispatches on the
 * gate kind once per run, not once per gate.  The same record carries
 * the rest of a clock cycle, so that each part is one call: pin writes,
 * output reads, the armed saboteurs and the DFF edge; gk_replay runs a
 * range of cycles of a pin program in one call.
 *
 * repro.synth.native compiles this file once per source digest and loads
 * it with ctypes.  The Python kernel in gatesim.py is the reference it
 * must match bit for bit.
 */
#include <stddef.h>
#include <stdint.h>

typedef uint64_t word;

/* GateKind.code, in the order of repro/synth/gates.py. */
enum { CONST0, CONST1, BUF, INV, AND2, OR2, NAND2, NOR2, XOR2, XNOR2, MUX2 };

typedef struct {
    word *values;            /* one lane word per net */
    word mask;               /* the simulator's lanes */
    /* The level schedule: level L + 1's runs end at run level_end[L]; run
     * r is runs[2r] (a kind) over runs[2r + 1] cells, which lie one after
     * another in cells, each its output net, then its input nets. */
    int32_t levels;
    const int32_t *level_end, *runs, *cells;
    /* Registers: at the clock edge net q_nets[i] takes d_nets[i]. */
    int32_t dffs;
    const int32_t *d_nets, *q_nets;
    word *sampled;
    /* Buses in chunks of at most 64 nets, LSB first: chunk c is nets
     * bus_nets[bus_start[c]] up to bus_nets[bus_start[c + 1]].  The first
     * pin_chunks chunks are the input pins, the next out_chunks the
     * outputs.  Output bus b is output chunks out_end[b - 1] (0 for the
     * first bus) up to out_end[b]. */
    int32_t pin_chunks, out_chunks, out_buses;
    const int32_t *bus_start, *bus_nets, *out_end;
    word *pin_raw;           /* pin writes staged for the next settle */
    uint8_t *pin_staged;
    word *out_raw;           /* lane 0 of every output chunk, kept current */
    /* The armed saboteurs, sorted by level: override k, at level ov[2k],
     * sets net ov[2k + 1] to ((value & keep) | bits) ^ flip, where keep,
     * bits and flip are ov_words[3k], ov_words[3k + 1], ov_words[3k + 2]. */
    int32_t overrides;
    const int32_t *ov;
    const word *ov_words;
    /* The driven values of overridden level-0 nets (pins, DFF outputs),
     * restored before the next settle unless driven or clocked first. */
    int32_t n_held;
    int32_t *held_nets;
    word *held_values;
    uint8_t *is_held;
} Sim;

static void write_chunk(Sim *s, int32_t chunk, word raw)
{
    const int32_t *net = s->bus_nets + s->bus_start[chunk];
    int32_t width = s->bus_start[chunk + 1] - s->bus_start[chunk];
    for (int32_t i = 0; i < width; i++) {
        s->values[net[i]] = ((word)0 - ((raw >> i) & 1)) & s->mask;
        s->is_held[net[i]] = 0;
    }
}

static word read_chunk(const Sim *s, int32_t chunk, int32_t lane)
{
    const int32_t *net = s->bus_nets + s->bus_start[chunk];
    int32_t width = s->bus_start[chunk + 1] - s->bus_start[chunk];
    word raw = 0;
    for (int32_t i = 0; i < width; i++)
        raw |= ((s->values[net[i]] >> lane) & 1) << i;
    return raw;
}

static void pack_outputs(Sim *s)
{
    for (int32_t c = 0; c < s->out_chunks; c++)
        s->out_raw[c] = read_chunk(s, s->pin_chunks + c, 0);
}

static int32_t apply_overrides(Sim *s, int32_t k, int32_t level)
{
    word *v = s->values;
    for (; k < s->overrides && s->ov[2 * k] == level; k++) {
        const word *w = s->ov_words + 3 * k;
        int32_t net = s->ov[2 * k + 1];
        v[net] = ((v[net] & w[0]) | w[1]) ^ w[2];
    }
    return k;
}

/* Write a broadcast value into pin chunk `chunk` at once. */
void gk_drive(Sim *s, int32_t chunk, word raw)
{
    write_chunk(s, chunk, raw);
    pack_outputs(s);
}

/* Write one raw per lane into pin chunk `chunk`: raws[L] is lane L's. */
void gk_drive_lanes(Sim *s, int32_t chunk, const word *raws)
{
    const int32_t *net = s->bus_nets + s->bus_start[chunk];
    int32_t width = s->bus_start[chunk + 1] - s->bus_start[chunk];
    for (int32_t i = 0; i < width; i++) {
        word packed = 0;
        for (int32_t lane = 0; lane < 64 && ((s->mask >> lane) & 1); lane++)
            packed |= ((raws[lane] >> i) & 1) << lane;
        s->values[net[i]] = packed;
        s->is_held[net[i]] = 0;
    }
    pack_outputs(s);
}

/* Settle the logic: the driven values of held nets come back, staged
 * pins are written, level-0 saboteurs override pins and DFF outputs
 * (their driven values held aside), and the levels are swept in order,
 * each level's saboteurs applied after it. */
static void settle(Sim *s)
{
    word *v = s->values;
    word mask = s->mask;
    for (int32_t k = 0; k < s->n_held; k++) {
        int32_t net = s->held_nets[k];
        if (s->is_held[net]) {
            v[net] = s->held_values[k];
            s->is_held[net] = 0;
        }
    }
    s->n_held = 0;
    for (int32_t c = 0; c < s->pin_chunks; c++)
        if (s->pin_staged[c]) {
            s->pin_staged[c] = 0;
            write_chunk(s, c, s->pin_raw[c]);
        }
    int32_t k = 0;
    for (; k < s->overrides && s->ov[2 * k] == 0; k++) {
        int32_t net = s->ov[2 * k + 1];
        s->held_nets[s->n_held] = net;
        s->held_values[s->n_held++] = v[net];
        s->is_held[net] = 1;
    }
    apply_overrides(s, 0, 0);

    const int32_t *c = s->cells;
    int32_t run = 0;
    for (int32_t level = 0; level < s->levels; level++) {
        for (; run < s->level_end[level]; run++) {
            int32_t n = s->runs[2 * run + 1];
            switch (s->runs[2 * run]) {
            case CONST0:
                for (int32_t i = 0; i < n; i++, c += 1) v[c[0]] = 0;
                break;
            case CONST1:
                for (int32_t i = 0; i < n; i++, c += 1) v[c[0]] = mask;
                break;
            case BUF:
                for (int32_t i = 0; i < n; i++, c += 2) v[c[0]] = v[c[1]];
                break;
            case INV:
                for (int32_t i = 0; i < n; i++, c += 2)
                    v[c[0]] = v[c[1]] ^ mask;
                break;
            case AND2:
                for (int32_t i = 0; i < n; i++, c += 3)
                    v[c[0]] = v[c[1]] & v[c[2]];
                break;
            case OR2:
                for (int32_t i = 0; i < n; i++, c += 3)
                    v[c[0]] = v[c[1]] | v[c[2]];
                break;
            case NAND2:
                for (int32_t i = 0; i < n; i++, c += 3)
                    v[c[0]] = (v[c[1]] & v[c[2]]) ^ mask;
                break;
            case NOR2:
                for (int32_t i = 0; i < n; i++, c += 3)
                    v[c[0]] = (v[c[1]] | v[c[2]]) ^ mask;
                break;
            case XOR2:
                for (int32_t i = 0; i < n; i++, c += 3)
                    v[c[0]] = v[c[1]] ^ v[c[2]];
                break;
            case XNOR2:
                for (int32_t i = 0; i < n; i++, c += 3)
                    v[c[0]] = v[c[1]] ^ v[c[2]] ^ mask;
                break;
            case MUX2:  /* (sel, a, b) -> sel ? a : b */
                for (int32_t i = 0; i < n; i++, c += 4) {
                    word low = v[c[3]];
                    v[c[0]] = low ^ (v[c[1]] & (v[c[2]] ^ low));
                }
                break;
            }
        }
        k = apply_overrides(s, k, level + 1);
    }
}

void gk_settle(Sim *s)
{
    settle(s);
    pack_outputs(s);
}

/* The clock edge: every D is sampled before any Q is updated. */
static void clock_edge(Sim *s)
{
    for (int32_t i = 0; i < s->dffs; i++)
        s->sampled[i] = s->values[s->d_nets[i]];
    for (int32_t i = 0; i < s->dffs; i++) {
        s->values[s->q_nets[i]] = s->sampled[i];
        s->is_held[s->q_nets[i]] = 0;
    }
}

void gk_clock(Sim *s)
{
    clock_edge(s);
    pack_outputs(s);
}

/* Diff every output bus's lanes against `golden`, lane 0's output chunks
 * of a fault-free run, bus by bus: each lane of `undetected` whose bus
 * differs is claimed, first[2L] = cycle and first[2L + 1] = bus, and
 * leaves the set.  Returns the lanes still undetected. */
static word claim(const Sim *s, const word *golden, word undetected,
                  int32_t cycle, int32_t *first)
{
    int32_t c = 0;
    for (int32_t bus = 0; bus < s->out_buses && undetected; bus++) {
        word diff = 0;
        for (; c < s->out_end[bus]; c++) {
            const int32_t *at = s->bus_start + s->pin_chunks + c;
            const int32_t *net = s->bus_nets + at[0];
            int32_t width = at[1] - at[0];
            for (int32_t i = 0; i < width; i++)
                diff |= s->values[net[i]] ^ ((word)0 - ((golden[c] >> i) & 1));
        }
        word newly = diff & undetected;
        undetected &= ~newly;
        for (int32_t lane = 0; newly; lane++, newly >>= 1)
            if (newly & 1) {
                first[2 * lane] = cycle;
                first[2 * lane + 1] = bus;
            }
    }
    return undetected;
}

/* Cycles [start, stop) of a broadcast pin program, in one call: cycle t
 * writes raws[t * pin_chunks + c] into each pin chunk c it drives
 * (driven[t * pin_chunks + c] set) and settles.  Then, with `undetected`
 * NULL, lane 0's output chunks are recorded in golden[t * out_chunks ..];
 * otherwise they are claimed against those golden words (claim above).
 * Then the clock edge.  The replay stops after the cycle that leaves no
 * lane undetected, and returns the cycles it ran. */
int32_t gk_replay(Sim *s, const word *raws, const uint8_t *driven,
                  int32_t start, int32_t stop, word *golden,
                  word *undetected, int32_t *first)
{
    int32_t cycle = start;
    for (; cycle < stop && (!undetected || *undetected); cycle++) {
        const word *raw = raws + (size_t)cycle * s->pin_chunks;
        const uint8_t *set = driven + (size_t)cycle * s->pin_chunks;
        for (int32_t c = 0; c < s->pin_chunks; c++)
            if (set[c]) {
                s->pin_raw[c] = raw[c];
                s->pin_staged[c] = 1;
            }
        settle(s);
        word *row = golden + (size_t)cycle * s->out_chunks;
        if (undetected)
            *undetected = claim(s, row, *undetected, cycle, first);
        else
            for (int32_t c = 0; c < s->out_chunks; c++)
                row[c] = read_chunk(s, s->pin_chunks + c, 0);
        clock_edge(s);
    }
    pack_outputs(s);
    return cycle - start;
}

/* After the values were overwritten by a checkpoint: nothing is held. */
void gk_restored(Sim *s)
{
    for (int32_t k = 0; k < s->n_held; k++)
        s->is_held[s->held_nets[k]] = 0;
    s->n_held = 0;
    pack_outputs(s);
}

/* Lane `lane` of bus chunk `chunk`. */
word gk_read(const Sim *s, int32_t chunk, int32_t lane)
{
    return read_chunk(s, chunk, lane);
}

/* Every lane of bus chunk `chunk`: lane L's raw into raws[L]. */
void gk_read_lanes(const Sim *s, int32_t chunk, word *raws)
{
    for (int32_t lane = 0; lane < 64 && ((s->mask >> lane) & 1); lane++)
        raws[lane] = read_chunk(s, chunk, lane);
}
