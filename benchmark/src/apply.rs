//! The one place operations cross into the program: an [`Op`] becomes a
//! `NexusVolume` (or `AsyncVolume`) call, and what came back is checked
//! against what the model expects.

use nexus_core::{AsyncVolume, DirRow, LookupInfo, NexusVolume, Result, Rights};

use crate::model::Op;

/// What an operation returned.
#[derive(Debug)]
pub enum Output {
    /// Nothing to check beyond `Ok`.
    Unit,
    /// File bytes.
    Bytes(Vec<u8>),
    /// One buffer per path.
    Many(Vec<Vec<u8>>),
    /// A `lookup` result.
    Info(LookupInfo),
    /// A listing.
    Rows(Vec<DirRow>),
}

/// Runs `op` on `vol`; `data` is the payload of a write.
pub fn call(vol: &NexusVolume, op: &Op, data: &[u8]) -> Result<Output> {
    match op {
        Op::Mkdir { path } => vol.mkdir(path).map(|()| Output::Unit),
        Op::Write { path, .. } => vol.write_file(path, data).map(|()| Output::Unit),
        Op::Read { path, .. } => vol.read_file(path).map(Output::Bytes),
        Op::ReadRange {
            path, offset, len, ..
        } => vol.read_range(path, *offset, *len).map(Output::Bytes),
        Op::ReadFiles { paths, .. } => {
            let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
            vol.read_files(&refs).map(Output::Many)
        }
        Op::Lookup { path, .. } => vol.lookup(path).map(Output::Info),
        Op::ListDir { path, .. } => vol.list_dir(path).map(Output::Rows),
        Op::Rename { from, to } => vol.rename(from, to).map(|()| Output::Unit),
        Op::Remove { path } => vol.remove(path).map(|()| Output::Unit),
        Op::SetAcl {
            path,
            user,
            grant: true,
        } => vol.set_acl(path, user, Rights::READ).map(|()| Output::Unit),
        Op::SetAcl {
            path,
            user,
            grant: false,
        } => vol.revoke_acl(path, user).map(|()| Output::Unit),
    }
}

/// [`call`] on an executor client. Only the kinds the many-client mix
/// uses; anything else is a bug in the generator.
pub async fn call_async(av: &AsyncVolume, op: &Op, data: &[u8]) -> Result<Output> {
    match op {
        Op::Write { path, .. } => av.write_file(path, data).await.map(|()| Output::Unit),
        Op::Read { path, .. } => av.read_file(path).await.map(Output::Bytes),
        Op::ReadFiles { paths, .. } => av.read_files(paths).await.map(Output::Many),
        Op::SetAcl {
            path,
            user,
            grant: true,
        } => av
            .set_acl(path, user, Rights::READ)
            .await
            .map(|()| Output::Unit),
        Op::SetAcl {
            path,
            user,
            grant: false,
        } => av.revoke_acl(path, user).await.map(|()| Output::Unit),
        other => unreachable!("the many-client mix has no {:?}", other.kind()),
    }
}

/// True when `out` is the answer `op` expects.
pub fn verify(op: &Op, out: &Result<Output>, base: &[u8]) -> bool {
    let Ok(out) = out else { return false };
    match (op, out) {
        (Op::Read { expect, .. }, Output::Bytes(data)) => expect.matches(data, base),
        (
            Op::ReadRange {
                offset,
                len,
                expect,
                ..
            },
            Output::Bytes(data),
        ) => data.len() as u64 == *len && expect.matches_at(data, base, *offset as usize),
        (Op::ReadFiles { expect, .. }, Output::Many(datas)) => {
            datas.len() == expect.len() && expect.iter().zip(datas).all(|(c, d)| c.matches(d, base))
        }
        (Op::Lookup { size, .. }, Output::Info(info)) => info.size == *size,
        (Op::ListDir { names, .. }, Output::Rows(rows)) => {
            let mut got: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            got.sort_unstable();
            got.iter().eq(names.iter())
        }
        (
            Op::Read { .. }
            | Op::ReadRange { .. }
            | Op::ReadFiles { .. }
            | Op::Lookup { .. }
            | Op::ListDir { .. },
            _,
        ) => false,
        (_, Output::Unit) => true,
        _ => false,
    }
}
