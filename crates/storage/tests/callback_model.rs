//! Model test of the AFS client's callback semantics: three clients over
//! four paths drive every call that grants, reads or breaks a callback
//! promise, and each step is checked against a reference model that keeps
//! the promises as server-side holder sets and each client's cache as a
//! data map beside a status map. After every step the per-slot results and,
//! for every client, `cache_hits`, `remote_rpcs`, the simulated time, the
//! lane's local time and which paths it holds a promise on must equal the
//! model's: how a cache hit is found may change, never whether one happens
//! or what it costs.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, MemBackend, ObjectStat, SimClock, StorageBackend, StorageError};
use nexus_testkit::{shrink, tk_assert_eq, Gen, Runner};

const CLIENTS: usize = 3;
const PATHS: usize = 4;

fn path(i: usize) -> String {
    format!("p{i}")
}

#[derive(Debug, Clone)]
enum Call {
    Get(usize),
    GetRange(usize, u64, u64),
    Stat(usize),
    Exists(usize),
    GetMany(Vec<usize>),
    PutMany(Vec<(usize, Vec<u8>)>),
    StatMany(Vec<usize>),
    Put(usize, Vec<u8>),
    Delete(usize),
    Rename(usize, usize),
    Flush,
    Lock(usize),
    Unlock(usize),
}

/// One step: which client makes which call.
type Step = (usize, Call);

fn gen_step(g: &mut Gen) -> Step {
    let p = |g: &mut Gen| g.usize_below(PATHS);
    let call = match g.usize_below(13) {
        0 => Call::Get(p(g)),
        1 => Call::GetRange(p(g), g.u64_below(12), g.u64_below(12)),
        2 => Call::Stat(p(g)),
        3 => Call::Exists(p(g)),
        4 => Call::GetMany(g.vec(1, 5, p)),
        5 => Call::PutMany(g.vec(1, 4, |g| (p(g), g.byte_vec(0, 16)))),
        6 => Call::StatMany(g.vec(1, 5, p)),
        7 | 8 => Call::Put(p(g), g.byte_vec(0, 16)),
        9 => Call::Delete(p(g)),
        10 => Call::Rename(p(g), p(g)),
        11 => Call::Flush,
        _ if g.bool() => Call::Lock(p(g)),
        _ => Call::Unlock(p(g)),
    };
    (g.usize_below(CLIENTS), call)
}

/// Makes `call` on the real client, returning its results' debug text.
fn run(c: &AfsClient, call: &Call) -> String {
    let names = |ix: &[usize]| ix.iter().map(|&i| path(i)).collect::<Vec<_>>();
    match call {
        Call::Get(p) => format!("{:?}", c.get(&path(*p))),
        Call::GetRange(p, off, len) => format!("{:?}", c.get_range(&path(*p), *off, *len)),
        Call::Stat(p) => format!("{:?}", c.stat(&path(*p))),
        Call::Exists(p) => format!("{:?}", c.exists(&path(*p))),
        Call::GetMany(ix) => format!("{:?}", c.get_many(&names(ix))),
        Call::PutMany(items) => {
            let items: Vec<_> = items.iter().map(|(i, d)| (path(*i), d.clone())).collect();
            format!("{:?}", c.put_many(&items))
        }
        Call::StatMany(ix) => format!("{:?}", c.stat_many(&names(ix))),
        Call::Put(p, d) => format!("{:?}", c.put(&path(*p), d)),
        Call::Delete(p) => format!("{:?}", c.delete(&path(*p))),
        Call::Rename(from, to) => format!("{:?}", c.rename_object(&path(*from), &path(*to))),
        Call::Flush => format!("{:?}", c.flush_cache()),
        Call::Lock(p) => format!("{:?}", c.lock(&path(*p), 1)),
        Call::Unlock(p) => format!("{:?}", c.unlock(&path(*p), 1)),
    }
}

/// One client in the model: separate data and status maps, and its
/// accounting.
#[derive(Debug, Default)]
struct Client {
    data: HashMap<usize, Vec<u8>>,
    status: HashMap<usize, ObjectStat>,
    lane: Duration,
    sim: Duration,
    hits: u64,
    rpcs: u64,
}

/// The callback semantics kept the plain way: holder sets on the server
/// and a write time per path, over a plain store for objects and locks.
#[derive(Debug, Default)]
struct Model {
    store: MemBackend,
    holders: HashMap<usize, HashSet<usize>>,
    write_time: HashMap<usize, Duration>,
    clients: [Client; CLIENTS],
    lat: LatencyModel,
}

impl Model {
    fn charge(&mut self, c: usize, cost: Duration, rpcs: u64, hits: u64) {
        let cl = &mut self.clients[c];
        (cl.lane, cl.sim, cl.rpcs, cl.hits) =
            (cl.lane + cost, cl.sim + cost, cl.rpcs + rpcs, cl.hits + hits);
    }
    fn rpc(&mut self, c: usize, cost: Duration) {
        self.charge(c, cost, 1, 0);
    }
    fn hit(&mut self, c: usize) {
        self.charge(c, self.lat.cache_hit, 0, 1);
    }
    fn raise(&mut self, c: usize, t: Duration) {
        self.clients[c].lane = self.clients[c].lane.max(t);
    }
    fn written(&self, p: usize) -> Duration {
        self.write_time.get(&p).copied().unwrap_or_default()
    }
    fn holds(&self, c: usize, p: usize) -> bool {
        self.holders.get(&p).is_some_and(|h| h.contains(&c))
    }
    /// Whether `c` holds a promise on `p`; a broken one purges its copy.
    fn held(&mut self, c: usize, p: usize) -> bool {
        let held = self.holds(c, p);
        if !held {
            self.clients[c].data.remove(&p);
            self.clients[c].status.remove(&p);
        }
        held
    }
    fn cached_data(&mut self, c: usize, p: usize) -> Option<Vec<u8>> {
        self.held(c, p).then(|| self.clients[c].data.get(&p).cloned()).flatten()
    }
    fn cached_stat(&mut self, c: usize, p: usize) -> Option<ObjectStat> {
        self.held(c, p).then(|| self.clients[c].status.get(&p).copied()).flatten()
    }
    fn object(&self, p: usize) -> Result<(Vec<u8>, ObjectStat), StorageError> {
        Ok((self.store.get(&path(p))?, self.store.stat(&path(p))?))
    }
    /// Grants `c` a promise on `p` and admits the snapshot.
    fn grant(&mut self, c: usize, p: usize, data: Option<Vec<u8>>, stat: ObjectStat) {
        self.holders.entry(p).or_default().insert(c);
        self.admit(c, p, data, stat);
    }
    /// Caches a snapshot. Calls run one at a time here, so every grant is
    /// the newest, whatever its version (a delete restarts versions); a
    /// status-only snapshot leaves no older bytes beside it.
    fn admit(&mut self, c: usize, p: usize, data: Option<Vec<u8>>, stat: ObjectStat) {
        let cl = &mut self.clients[c];
        cl.status.insert(p, stat);
        match data {
            Some(d) => cl.data.insert(p, d),
            None => cl.data.remove(&p),
        };
    }
    /// StoreData: the new version, and `c` the only holder left.
    fn store(&mut self, c: usize, p: usize, d: &[u8]) -> ObjectStat {
        self.store.put(&path(p), d).unwrap();
        self.holders.insert(p, HashSet::from([c]));
        self.store.stat(&path(p)).unwrap()
    }
    fn wrote(&mut self, c: usize, p: usize) {
        let at = self.clients[c].lane.max(self.written(p));
        self.write_time.insert(p, at);
    }

    fn apply(&mut self, c: usize, call: &Call) -> String {
        match call {
            Call::Get(p) => format!("{:?}", self.get_many(c, &[*p]).pop().unwrap()),
            Call::GetRange(p, off, len) => {
                let out = match self.cached_data(c, *p) {
                    Some(d) => {
                        let bad = StorageError::BadRange {
                            path: path(*p),
                            offset: *off,
                            len: *len,
                            size: d.len() as u64,
                        };
                        let end = off.checked_add(*len).filter(|&end| end <= d.len() as u64);
                        let out = end.map(|end| d[*off as usize..end as usize].to_vec()).ok_or(bad);
                        out.inspect(|_| self.hit(c))
                    }
                    None => self.store.get_range(&path(*p), *off, *len).inspect(|_| {
                        self.raise(c, self.written(*p));
                        self.rpc(c, self.lat.rpc_cost(*len as usize));
                    }),
                };
                format!("{out:?}")
            }
            Call::Stat(p) => format!("{:?}", self.stat_many(c, &[*p], false).pop().unwrap()),
            Call::Exists(p) => format!("{:?}", self.stat_many(c, &[*p], false)[0].is_ok()),
            Call::GetMany(ix) => format!("{:?}", self.get_many(c, ix)),
            Call::PutMany(items) => format!("{:?}", self.put_many(c, items)),
            Call::StatMany(ix) => format!("{:?}", self.stat_many(c, ix, true)),
            Call::Put(p, d) => format!("{:?}", self.put_many(c, &[(*p, d.clone())]).pop().unwrap()),
            Call::Delete(p) => {
                let out = self.store.delete(&path(*p)).inspect(|_| {
                    self.holders.remove(p);
                    self.held(c, *p);
                    self.rpc(c, self.lat.rpc_cost(0));
                });
                format!("{out:?}")
            }
            Call::Rename(from, to) => {
                let out = self.object(*from).map(|(d, _)| {
                    // Cached bytes move only under a promise still held.
                    let moved = self.cached_data(c, *from);
                    let stat = self.store(c, *to, &d);
                    self.store.delete(&path(*from)).unwrap();
                    self.holders.remove(from);
                    self.clients[c].status.remove(from);
                    self.clients[c].data.remove(from);
                    self.admit(c, *to, moved, stat);
                    self.rpc(c, self.lat.rpc_cost(0));
                    self.wrote(c, *to);
                });
                format!("{out:?}")
            }
            Call::Flush => {
                self.clients[c].data.clear();
                self.clients[c].status.clear();
                "()".into()
            }
            Call::Lock(p) => {
                self.rpc(c, self.lat.rpc_rtt + self.lat.lock_overhead);
                format!("{:?}", self.store.lock(&path(*p), c as u64))
            }
            Call::Unlock(p) => {
                self.charge(c, self.lat.cache_hit, 0, 0);
                self.store.unlock(&path(*p), c as u64);
                "()".into()
            }
        }
    }

    /// Serial `get` is a batch of one: hits in order, misses in one RPC.
    fn get_many(&mut self, c: usize, ix: &[usize]) -> Vec<Result<Vec<u8>, StorageError>> {
        let (mut out, mut served, mut bytes, mut avail) = (Vec::new(), 0, 0, Duration::ZERO);
        for &p in ix {
            if let Some(d) = self.cached_data(c, p) {
                self.hit(c);
                out.push(Ok(d));
                continue;
            }
            out.push(self.object(p).map(|(d, stat)| {
                self.grant(c, p, Some(d.clone()), stat);
                (served, bytes, avail) = (served + 1, bytes + d.len(), avail.max(self.written(p)));
                d
            }));
        }
        if served > 0 {
            self.raise(c, avail);
            self.rpc(c, self.lat.batch_rpc_cost(served, bytes));
        }
        out
    }

    /// Serial `put` is a batch of one.
    fn put_many(&mut self, c: usize, items: &[(usize, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        for (p, d) in items {
            let stat = self.store(c, *p, d);
            self.admit(c, *p, Some(d.clone()), stat);
        }
        let bytes = items.iter().map(|(_, d)| d.len()).sum();
        self.rpc(c, self.lat.batch_rpc_cost(items.len(), bytes));
        items.iter().for_each(|(p, _)| self.wrote(c, *p));
        vec![Ok(()); items.len()]
    }

    /// `stat` and `exists` pay their RPC before asking; a batch pays once,
    /// after.
    fn stat_many(
        &mut self,
        c: usize,
        ix: &[usize],
        batch: bool,
    ) -> Vec<Result<ObjectStat, StorageError>> {
        let (mut out, mut misses) = (Vec::new(), 0);
        for &p in ix {
            if let Some(s) = self.cached_stat(c, p) {
                self.hit(c);
                out.push(Ok(s));
                continue;
            }
            misses += 1;
            if !batch {
                self.rpc(c, self.lat.rpc_cost(0));
            }
            out.push(self.store.stat(&path(p)).inspect(|&stat| self.grant(c, p, None, stat)));
        }
        if batch && misses > 0 {
            self.rpc(c, self.lat.batch_rpc_cost(misses, 0));
        }
        out
    }
}

/// Client 0 puts three times; client 1 deletes and re-creates the path, so
/// its version restarts; client 0's own put after that must be what it
/// reads back.
fn put_after_recreate() -> Vec<Step> {
    vec![
        (0, Call::Put(0, b"x1".to_vec())),
        (0, Call::Put(0, b"x2".to_vec())),
        (0, Call::Put(0, b"x3".to_vec())),
        (1, Call::Delete(0)),
        (1, Call::Put(0, b"y1".to_vec())),
        (0, Call::Put(0, b"x-mine".to_vec())),
        (0, Call::Get(0)),
    ]
}

/// Client 1 overwrites a path client 0 caches; client 0's rename of it
/// must not carry its stale bytes to the target.
fn rename_after_overwrite() -> Vec<Step> {
    vec![
        (0, Call::Put(0, b"old".to_vec())),
        (1, Call::Put(0, b"new".to_vec())),
        (0, Call::Rename(0, 1)),
        (0, Call::Get(1)),
    ]
}

fn regression() -> Vec<Step> {
    vec![
        (0, Call::Put(0, b"v1".to_vec())),
        (1, Call::Get(0)),
        (2, Call::Stat(0)),
        (0, Call::Put(0, b"v2".to_vec())),
        (1, Call::GetRange(0, 0, 2)),
        (1, Call::Get(0)),
        (2, Call::Exists(0)),
        (1, Call::Rename(0, 1)),
        (0, Call::GetMany(vec![0, 1, 1])),
        (2, Call::Delete(1)),
        (0, Call::StatMany(vec![1, 0])),
    ]
}

#[test]
fn afs_client_matches_the_holder_set_model() {
    Runner::new("afs_client_matches_the_holder_set_model")
        .cases(160)
        .seed(0xca11_bac5)
        .regression(regression())
        .regression(put_after_recreate())
        .regression(rename_after_overwrite())
        .run(
            |g| g.vec(1, 40, gen_step),
            |steps| shrink::ops(steps),
            |steps| {
                let (server, clock, lat) =
                    (AfsServer::new(), SimClock::new(), LatencyModel::default());
                let clients: Vec<AfsClient> =
                    (0..CLIENTS).map(|_| AfsClient::connect(&server, clock.clone(), lat)).collect();
                let mut model = Model::default();
                for (i, (c, call)) in steps.iter().enumerate() {
                    let real = run(&clients[*c], call);
                    tk_assert_eq!(real, model.apply(*c, call), "step {i}: client {c} {call:?}");
                    for (k, (client, m)) in clients.iter().zip(&model.clients).enumerate() {
                        let stats = client.stats();
                        let held: Vec<bool> =
                            (0..PATHS).map(|p| client.holds_callback(&path(p))).collect();
                        let want: Vec<bool> = (0..PATHS)
                            .map(|p| model.holds(k, p) && m.status.contains_key(&p))
                            .collect();
                        tk_assert_eq!(
                            (stats.cache_hits, stats.remote_rpcs, client.simulated_time()),
                            (m.hits, m.rpcs, m.sim),
                            "step {i}: client {k} hits, rpcs, simulated time"
                        );
                        tk_assert_eq!(
                            client.lane().local_now(),
                            m.lane,
                            "step {i}: client {k} lane"
                        );
                        tk_assert_eq!(held, want, "step {i}: client {k} promises held");
                    }
                }
                Ok(())
            },
        );
}
