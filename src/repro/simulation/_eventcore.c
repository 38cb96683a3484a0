/* Compiled event loop for the message-level wormhole simulator.
 *
 * This file is the C half of repro/simulation/eventcore.py: the Python
 * side resolves paths, pre-draws the stochastic streams and flattens the
 * fabric's per-segment records into the arrays described by
 * EventCoreState; this side replays the exact event loop of
 * repro/simulation/wormhole.py (the reference engine) over those arrays.
 *
 * Bit-identical-trajectory contract
 * ---------------------------------
 * Every arithmetic operation below is a single IEEE-754 double add,
 * subtract, multiply or compare performed on the same operands, in the
 * same order, as the corresponding CPython expression in the reference
 * loop, and the event heap is ordered by the same (time, tie-break tag)
 * key with tags allocated in the same sequence (eseq advances in steps
 * of 4 with the event kind packed into the low two bits).  Therefore a
 * run produces the same event order, the same per-message grant times,
 * the same float accumulation order for busy/wait sums, and hence the
 * same latency trajectory bit for bit.  The build deliberately disables
 * floating-point contraction (-ffp-contract=off) so no add/multiply pair
 * is fused into an FMA; do not "optimise" expressions here by
 * re-associating float arithmetic.
 *
 * The binary heap is the same three-column (time, tag, payload) layout
 * as eventcore.ArrayHeap, which serves as the property-tested executable
 * specification of the ordering implemented by hpush/hpop below.
 *
 * No CPython API is used: the library is plain C loaded through ctypes,
 * so it builds with any system compiler and adds no Python dependency.
 */

#include <stdint.h>

#define ECORE_ABI 2

#define K_GEN 0
#define K_HDR 1
#define K_REL 2
#define K_DEL 3

/* Run-local mutable scalars shared by the heap helpers. */
typedef struct {
    double *ht;       /* heap column: event time */
    int64_t *hg;      /* heap column: tie-break tag (kind in low 2 bits) */
    int32_t *hp;      /* heap column: payload (message seq or channel id) */
    int64_t hn;       /* heap size */
    int64_t cap;      /* heap capacity */
    int64_t eseq;     /* tie-break counter, advances in steps of 4 */
    double src_wait_sum;
    double cd_wait_sum;
    int64_t src_wait_n;
    int64_t cd_wait_n;
    int overflow;
} Rt;

static int ev_less(double ta, int64_t ga, double tb, int64_t gb)
{
    return ta < tb || (ta == tb && ga < gb);
}

static void hpush(Rt *r, double t, int64_t g, int32_t p)
{
    int64_t i;
    if (r->hn >= r->cap) {
        r->overflow = 1;
        return;
    }
    i = r->hn++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (!ev_less(t, g, r->ht[par], r->hg[par]))
            break;
        r->ht[i] = r->ht[par];
        r->hg[i] = r->hg[par];
        r->hp[i] = r->hp[par];
        i = par;
    }
    r->ht[i] = t;
    r->hg[i] = g;
    r->hp[i] = p;
}

/* Remove the root; the caller reads ht[0]/hg[0]/hp[0] before calling. */
static void hpop(Rt *r)
{
    int64_t n = --r->hn;
    double t = r->ht[n];
    int64_t g = r->hg[n];
    int32_t p = r->hp[n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        int64_t rc;
        if (c >= n)
            break;
        rc = c + 1;
        if (rc < n && ev_less(r->ht[rc], r->hg[rc], r->ht[c], r->hg[c]))
            c = rc;
        if (!ev_less(r->ht[c], r->hg[c], t, g))
            break;
        r->ht[i] = r->ht[c];
        r->hg[i] = r->hg[c];
        r->hp[i] = r->hp[c];
        i = c;
    }
    if (n > 0) {
        r->ht[i] = t;
        r->hg[i] = g;
        r->hp[i] = p;
    }
}

/* All pointers are borrowed from numpy arrays owned by the Python
 * caller; field order must match eventcore._StateStruct exactly. */
typedef struct {
    /* scalars */
    int64_t n_channels;
    int64_t n_nodes;
    int64_t total;          /* window.total: messages generated */
    int64_t n_dead;         /* leftover arrivals after the budget */
    int64_t warmup;
    int64_t measured_end;   /* warmup + measured */
    int64_t measured_target;
    int64_t max_events;
    int64_t grants_stride;  /* per-message grant-buffer width */
    int64_t heap_cap;
    int64_t trace_cap;      /* 0 = tracing off */
    int64_t eseq0;          /* 4 * n_nodes: tags after the initial arrivals */

    /* static channel tables */
    const double *flit_time;      /* [n_channels] */
    const int8_t *uncontended;    /* [n_channels] */
    const int8_t *group;          /* [n_channels] */
    const int32_t *cluster_index; /* [n_nodes] */

    /* generation schedule (prepass output) */
    const double *g_time;     /* [total] */
    const int32_t *g_node;    /* [total] */
    const double *dead_time;  /* [n_dead] */
    const int32_t *dead_node; /* [n_dead] */

    /* flattened path / segment tables */
    const int32_t *m_path;    /* [total]: path id per message */
    const int32_t *p_off;     /* [n_paths + 1] -> p_segs */
    const int32_t *p_segs;    /* segment ids, concatenated per path */
    const int32_t *s_cid_off; /* [n_segs + 1] -> s_cids / s_hold */
    const int32_t *s_cids;    /* channel ids per segment */
    const double *s_hold;     /* M * tau_k per channel */
    const double *s_drain;    /* [n_segs]: (M - 1) * tau* */
    const int32_t *s_rel_off; /* [n_segs + 1] -> r_* (contended channels) */
    const int32_t *r_kk;
    const int32_t *r_cid;
    const double *r_hold;     /* M * tau_kk */
    const double *r_off;      /* (last - kk) * tau* */

    /* mutable run state (allocated/initialised by the caller) */
    double *heap_time;
    int64_t *heap_tag;
    int32_t *heap_payload;
    int64_t *node_tag;  /* [n_nodes]: tag of the node's pending arrival */
    int32_t *m_seg;     /* [total] current segment index */
    int32_t *m_k;       /* [total] current channel index in segment */
    int32_t *m_gc;      /* [total] grants recorded on current segment */
    int32_t *m_qnext;   /* [total] intrusive FIFO link */
    double *m_reqt;     /* [total] segment-entry request time */
    double *grants;     /* [total * grants_stride] */
    int32_t *occupancy; /* [n_channels] holder + queued waiters */
    double *last_grant; /* [n_channels] */
    int32_t *q_head;    /* [n_channels] waiting-queue head (-1 empty) */
    int32_t *q_tail;    /* [n_channels] */
    double *busy;       /* [n_groups] busy-time accumulators */

    /* outputs */
    double *lat;          /* [measured_target] measured latencies */
    int8_t *inter;        /* [measured_target] inter-cluster flags */
    int32_t *src_cluster; /* [measured_target] source clusters */
    double *trace_time;   /* [trace_cap] */
    int8_t *trace_kind;
    int32_t *trace_id;
    int64_t *out_i; /* events, generated, delivered, completed, trace_len */
    double *out_f;  /* now, source_wait_sum, cd_wait_sum */
    int64_t *out_w; /* source_wait_n, cd_wait_n */
} EventCoreState;

int64_t eventcore_abi(void)
{
    return ECORE_ABI;
}

/* Race the per-node Poisson arrival heaps to a generation schedule.
 *
 * Mirrors the reference engine's arrival heap exactly: node i's first
 * arrival is gaps[i] with tie-break tag i (monotone in the same node
 * order as the reference's initial tags), and generation s reschedules
 * its node at popped-time + gaps[n_nodes + s] with the next monotone
 * tag — so same-time arrivals resolve in the same relative order.  The
 * n_nodes arrivals left after the budget ("dead": popped but generating
 * nothing) drain into dead_time/dead_node in pop order.
 */
int64_t eventcore_prepass(int64_t n_nodes, int64_t total, const double *gaps,
                          double *ht, int64_t *hg, int32_t *hp,
                          double *g_time, int32_t *g_node,
                          double *dead_time, int32_t *dead_node)
{
    Rt r;
    int64_t i, s, next_tag;
    r.ht = ht;
    r.hg = hg;
    r.hp = hp;
    r.hn = 0;
    r.cap = n_nodes;
    r.overflow = 0;
    for (i = 0; i < n_nodes; i++)
        hpush(&r, gaps[i], i, (int32_t)i);
    next_tag = n_nodes;
    for (s = 0; s < total; s++) {
        double t = ht[0];
        int32_t node = hp[0];
        g_time[s] = t;
        g_node[s] = node;
        hpop(&r);
        hpush(&r, t + gaps[n_nodes + s], next_tag++, node);
    }
    for (i = 0; i < n_nodes; i++) {
        dead_time[i] = ht[0];
        dead_node[i] = hp[0];
        hpop(&r);
    }
    return r.overflow;
}

/* Request channel cid for message seq at time t.
 *
 * site: 1 = first channel of segment 0 (source queue statistics),
 *       2 = first channel of a later segment (c/d queue statistics),
 *       0 = mid-segment advance (no statistics).
 * Queue-wait statistics on a *queued* request are recorded at grant time
 * in the K_REL handler; an immediate grant counts a zero wait here,
 * exactly like the reference loop.
 */
static void acquire(const EventCoreState *s, Rt *r, int32_t cid, int32_t seq,
                    double t, int site, int meas)
{
    if (s->uncontended[cid]) {
        if (meas) {
            if (site == 1)
                r->src_wait_n++;
            else if (site == 2)
                r->cd_wait_n++;
        }
        s->grants[(int64_t)seq * s->grants_stride + s->m_gc[seq]] = t;
        s->m_gc[seq]++;
        r->eseq += 4;
        hpush(r, t + s->flit_time[cid], r->eseq | K_HDR, seq);
    } else if (!s->occupancy[cid]) {
        if (meas) {
            if (site == 1)
                r->src_wait_n++;
            else if (site == 2)
                r->cd_wait_n++;
        }
        s->grants[(int64_t)seq * s->grants_stride + s->m_gc[seq]] = t;
        s->m_gc[seq]++;
        s->occupancy[cid] = 1;
        s->last_grant[cid] = t;
        r->eseq += 4;
        hpush(r, t + s->flit_time[cid], r->eseq | K_HDR, seq);
    } else {
        s->m_reqt[seq] = t;
        s->m_qnext[seq] = -1;
        if (s->q_tail[cid] >= 0)
            s->m_qnext[s->q_tail[cid]] = seq;
        else
            s->q_head[cid] = seq;
        s->q_tail[cid] = seq;
        s->occupancy[cid]++;
    }
}

int64_t eventcore_run(EventCoreState *s)
{
    Rt r;
    int64_t gi = 0, di = 0;
    int64_t events = 0, generated = 0, delivered = 0, tlen = 0;
    int completed = 0;
    double t = 0.0;
    double na_t = 0.0;
    int64_t na_tag = 0;

    r.ht = s->heap_time;
    r.hg = s->heap_tag;
    r.hp = s->heap_payload;
    r.hn = 0;
    r.cap = s->heap_cap;
    r.eseq = s->eseq0;
    r.src_wait_sum = 0.0;
    r.cd_wait_sum = 0.0;
    r.src_wait_n = 0;
    r.cd_wait_n = 0;
    r.overflow = 0;

    if (gi < s->total) {
        na_t = s->g_time[gi];
        na_tag = s->node_tag[s->g_node[gi]];
    } else if (di < s->n_dead) {
        na_t = s->dead_time[di];
        na_tag = s->node_tag[s->dead_node[di]];
    }

    for (;;) {
        int kind, is_arr;
        int32_t pay;
        int have_arr = (gi < s->total) || (di < s->n_dead);
        if (r.hn && (!have_arr || ev_less(r.ht[0], r.hg[0], na_t, na_tag))) {
            t = r.ht[0];
            kind = (int)(r.hg[0] & 3);
            pay = r.hp[0];
            hpop(&r);
            is_arr = 0;
        } else if (have_arr) {
            t = na_t;
            kind = K_GEN;
            pay = (gi < s->total) ? s->g_node[gi] : s->dead_node[di];
            is_arr = 1;
        } else {
            break;
        }
        events++;
        if (s->trace_cap) {
            if (tlen >= s->trace_cap)
                return 2;
            s->trace_time[tlen] = t;
            s->trace_kind[tlen] = (int8_t)kind;
            s->trace_id[tlen] =
                is_arr ? ((gi < s->total) ? (int32_t)gi : -(pay + 1)) : pay;
            tlen++;
        }
        if (is_arr) {
            if (gi < s->total) {
                int32_t seq = (int32_t)gi;
                int32_t node = pay;
                int meas;
                int32_t pid, sg;
                gi++;
                generated++;
                meas = (seq >= s->warmup && seq < s->measured_end);
                pid = s->m_path[seq];
                sg = s->p_segs[s->p_off[pid]];
                /* m_seg/m_k/m_gc are zero-initialised by the caller. */
                acquire(s, &r, s->s_cids[s->s_cid_off[sg]], seq, t, 1, meas);
                r.eseq += 4;
                s->node_tag[node] = r.eseq;
            } else {
                /* Budget exhausted: counted, but generates nothing. */
                di++;
            }
            if (gi < s->total) {
                na_t = s->g_time[gi];
                na_tag = s->node_tag[s->g_node[gi]];
            } else if (di < s->n_dead) {
                na_t = s->dead_time[di];
                na_tag = s->node_tag[s->dead_node[di]];
            }
            if (r.overflow)
                return 1;
            if (events >= s->max_events)
                break;
            continue;
        }
        if (kind == K_HDR) {
            int32_t seq = pay;
            int32_t pid = s->m_path[seq];
            int32_t si = s->m_seg[seq];
            int32_t sg = s->p_segs[s->p_off[pid] + si];
            int32_t base = s->s_cid_off[sg];
            int32_t last = s->s_cid_off[sg + 1] - base - 1;
            int32_t k = s->m_k[seq];
            if (k < last) {
                k++;
                s->m_k[seq] = k;
                acquire(s, &r, s->s_cids[base + k], seq, t, 0, 0);
            } else {
                /* Header at the segment sink: schedule the contended
                 * channels' releases, then cut through or deliver. */
                double t_del = t + s->s_drain[sg];
                const double *gr = s->grants + (int64_t)seq * s->grants_stride;
                int32_t ri;
                int32_t nseg = s->p_off[pid + 1] - s->p_off[pid];
                for (ri = s->s_rel_off[sg]; ri < s->s_rel_off[sg + 1]; ri++) {
                    double release = gr[s->r_kk[ri]] + s->r_hold[ri];
                    double drain = t_del - s->r_off[ri];
                    r.eseq += 4;
                    hpush(&r, release > drain ? release : drain,
                          r.eseq | K_REL, s->r_cid[ri]);
                }
                if (si + 1 < nseg) {
                    int32_t sg2 = s->p_segs[s->p_off[pid] + si + 1];
                    int meas = (seq >= s->warmup && seq < s->measured_end);
                    s->m_seg[seq] = si + 1;
                    s->m_k[seq] = 0;
                    s->m_gc[seq] = 0;
                    acquire(s, &r, s->s_cids[s->s_cid_off[sg2]], seq, t, 2,
                            meas);
                } else {
                    r.eseq += 4;
                    hpush(&r, t_del, r.eseq | K_DEL, seq);
                }
            }
        } else if (kind == K_REL) {
            int32_t cid = pay;
            int32_t rem;
            s->busy[s->group[cid]] += t - s->last_grant[cid];
            rem = --s->occupancy[cid];
            if (rem) {
                int32_t seq = s->q_head[cid];
                int32_t gc;
                s->q_head[cid] = s->m_qnext[seq];
                if (s->q_head[cid] < 0)
                    s->q_tail[cid] = -1;
                s->last_grant[cid] = t;
                gc = s->m_gc[seq];
                if (gc == 0 && seq >= s->warmup && seq < s->measured_end) {
                    /* First channel of a segment: queue-wait statistics. */
                    double wait = t - s->m_reqt[seq];
                    if (s->m_seg[seq] == 0) {
                        r.src_wait_sum += wait;
                        r.src_wait_n++;
                    } else {
                        r.cd_wait_sum += wait;
                        r.cd_wait_n++;
                    }
                }
                s->grants[(int64_t)seq * s->grants_stride + gc] = t;
                s->m_gc[seq] = gc + 1;
                r.eseq += 4;
                hpush(&r, t + s->flit_time[cid], r.eseq | K_HDR, seq);
            }
        } else { /* K_DEL: only a journey's last segment schedules one */
            int32_t seq = pay;
            int32_t pid = s->m_path[seq];
            int32_t nseg = s->p_off[pid + 1] - s->p_off[pid];
            if (seq >= s->warmup && seq < s->measured_end) {
                s->lat[delivered] = t - s->g_time[seq];
                s->inter[delivered] = (int8_t)(nseg > 1);
                s->src_cluster[delivered] = s->cluster_index[s->g_node[seq]];
                delivered++;
                if (delivered >= s->measured_target) {
                    completed = 1;
                    break;
                }
            }
        }
        if (r.overflow)
            return 1;
        if (events >= s->max_events)
            break;
    }

    s->out_i[0] = events;
    s->out_i[1] = generated;
    s->out_i[2] = delivered;
    s->out_i[3] = completed;
    s->out_i[4] = tlen;
    s->out_f[0] = t;
    s->out_f[1] = r.src_wait_sum;
    s->out_f[2] = r.cd_wait_sum;
    s->out_w[0] = r.src_wait_n;
    s->out_w[1] = r.cd_wait_n;
    return r.overflow ? 1 : 0;
}
