//! `nexus-cli` — command-line client for NEXUS protected volumes.
//!
//! The store directory (`--store`) plays the untrusted file-sharing
//! service: a `LogBackend` directory, which each command holds until it
//! exits, so commands run concurrently on one store take turns. The home
//! directory (`--home`) holds this user's local state
//! (identity seed, platform seed, sealed rootkeys). Different homes against
//! the same store behave as different users on different machines, so the
//! full sharing protocol can be exercised from a shell:
//!
//! ```text
//! nexus-cli --home ~/.nexus-owen  --store /srv/share --user owen  init
//! nexus-cli --home ~/.nexus-owen  --store /srv/share --user owen  put ./plan.txt docs/plan.txt
//! nexus-cli --home ~/.nexus-alice --store /srv/share --user alice offer
//! nexus-cli --home ~/.nexus-owen  --store /srv/share --user owen  grant alice <alice-pubkey-hex>
//! nexus-cli --home ~/.nexus-owen  --store /srv/share --user owen  setfacl docs alice rw
//! nexus-cli --home ~/.nexus-alice --store /srv/share --user alice accept <owen-pubkey-hex>
//! nexus-cli --home ~/.nexus-alice --store /srv/share --user alice get docs/plan.txt
//! ```

mod state;

use std::path::PathBuf;
use std::process::ExitCode;

use nexus_core::{FileType, FsckMode, NexusConfig, NexusVolume, Rights, VolumeJoiner};
use nexus_crypto::ed25519::VerifyingKey;

use state::CliState;

const USAGE: &str = "\
nexus-cli — NEXUS protected volumes from the command line

USAGE:
    nexus-cli [--home DIR] [--store DIR] [--user NAME] <COMMAND> [ARGS]

VOLUME COMMANDS:
    init                         create a volume owned by --user
    info                         show volume id, users, and I/O statistics
    ls [PATH]                    list a directory
    tree [PATH]                  recursive listing
    mkdir PATH                   create a directory (with parents)
    put LOCAL REMOTE             encrypt and store a local file
    get REMOTE [LOCAL]           decrypt a file (to stdout or LOCAL)
    cat REMOTE                   decrypt a file to stdout
    rm PATH                      remove a file, empty directory, or symlink
    mv FROM TO                   rename/move
    ln TARGET LINKPATH           create a symlink
    stat PATH                    show type, size, and link count
    fsck [--deep]                verify the volume (--deep: decrypt all data)
    gc                           remove orphaned objects (owner only)

ACCESS CONTROL:
    users                        list authorized users
    whoami                       print this user's public key (hex)
    setfacl PATH USER RIGHTS     grant rights (r, w, or rw) on a directory
    getfacl PATH                 show a directory's ACL
    revoke PATH USER             remove a user's ACL entry (cheap!)
    revoke-user USER             remove a user from the volume entirely

SHARING (paper Fig. 4), each step its own run, at any time:
    offer                        publish a fresh quoted exchange key; its
                                 secret stays sealed under --home
    grant USER PUBKEY_HEX        verify USER's offer, share the rootkey
    accept OWNER_PUBKEY_HEX      extract a granted rootkey and save it;
                                 deletes the sealed offer secret

DEFAULTS:
    --home  ./.nexus-home        --store ./.nexus-store        --user owner
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    home: PathBuf,
    store: PathBuf,
    user: String,
    command: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut home = PathBuf::from("./.nexus-home");
    let mut store = PathBuf::from("./.nexus-store");
    let mut user = "owner".to_string();
    let mut command = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--home" => home = PathBuf::from(args.next().ok_or("--home needs a value")?),
            "--store" => store = PathBuf::from(args.next().ok_or("--store needs a value")?),
            "--user" => user = args.next().ok_or("--user needs a value")?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                command.push(other.to_string());
                command.extend(args.by_ref());
            }
        }
    }
    Ok(Args { home, store, user, command })
}

fn parse_pubkey(hex_str: &str) -> Result<VerifyingKey, String> {
    if hex_str.len() != 64 {
        return Err("public key must be 64 hex characters".into());
    }
    let mut bytes = [0u8; 32];
    for i in 0..32 {
        bytes[i] = u8::from_str_radix(&hex_str[2 * i..2 * i + 2], 16)
            .map_err(|_| "invalid hex in public key")?;
    }
    VerifyingKey::from_bytes(&bytes).map_err(|_| "not a valid Ed25519 public key".into())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn parse_rights(s: &str) -> Result<Rights, String> {
    match s {
        "r" => Ok(Rights::READ),
        "w" => Ok(Rights::WRITE),
        "rw" | "wr" => Ok(Rights::RW),
        other => Err(format!("rights must be r, w, or rw (got {other:?})")),
    }
}

fn mount(state: &CliState) -> Result<NexusVolume, String> {
    let sealed = state.load_rootkey("default")?;
    let volume = NexusVolume::mount(
        &state.platform,
        state.store.clone(),
        &state.ias,
        &sealed,
        NexusConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    volume.authenticate(&state.user).map_err(|e| {
        format!("authentication failed ({e}); is this user authorized on the volume?")
    })?;
    Ok(volume)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let Some((cmd, rest)) = args.command.split_first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let state = CliState::open(&args.home, &args.store, &args.user)?;

    match (cmd.as_str(), rest) {
        ("init", flags) => {
            if let Some(bad) = flags.first() {
                return Err(format!("unknown init flag {bad:?}"));
            }
            let (volume, sealed) = NexusVolume::create(
                &state.platform,
                state.store.clone(),
                &state.ias,
                &state.user,
                NexusConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            state.save_rootkey("default", &sealed)?;
            println!("created volume {}", volume.volume_id());
            println!("owner: {} ({})", args.user, hex(&state.user.public_key().to_bytes()));
            println!("sealed rootkey saved under {}", args.home.display());
        }
        ("whoami", []) => {
            println!("{} {}", args.user, hex(&state.user.public_key().to_bytes()));
        }
        ("info", []) => {
            let volume = mount(&state)?;
            println!("volume:  {}", volume.volume_id());
            println!("users:   {}", volume.users().map_err(|e| e.to_string())?.join(", "));
            let stats = volume.io_stats();
            println!(
                "i/o:     {} reads / {} writes / {} bytes stored",
                stats.reads, stats.writes, stats.bytes_written
            );
            let enclave = volume.enclave().stats();
            println!("enclave: {} ecalls, {} ocalls", enclave.ecalls(), enclave.ocalls());
        }
        ("ls", rest) => {
            let path = rest.first().map(String::as_str).unwrap_or("");
            let volume = mount(&state)?;
            for row in volume.list_dir(path).map_err(|e| e.to_string())? {
                let tag = match row.kind {
                    FileType::Directory => "d",
                    FileType::File => "-",
                    FileType::Symlink => "l",
                };
                println!("{tag} {}", row.name);
            }
        }
        ("tree", rest) => {
            let root = rest.first().map(String::as_str).unwrap_or("");
            let volume = mount(&state)?;
            print_tree(&volume, root, 0)?;
        }
        ("mkdir", [path]) => {
            mount(&state)?.mkdir_all(path).map_err(|e| e.to_string())?;
            println!("created {path}/");
        }
        ("put", [local, remote]) => {
            let data = std::fs::read(local).map_err(|e| format!("reading {local}: {e}"))?;
            mount(&state)?.write_file(remote, &data).map_err(|e| e.to_string())?;
            println!("stored {} bytes at {remote}", data.len());
        }
        ("get", [remote, localrest @ ..]) => {
            let data = mount(&state)?.read_file(remote).map_err(|e| e.to_string())?;
            match localrest.first() {
                Some(local) => {
                    std::fs::write(local, &data).map_err(|e| format!("writing {local}: {e}"))?;
                    println!("wrote {} bytes to {local}", data.len());
                }
                None => {
                    use std::io::Write;
                    std::io::stdout().write_all(&data).map_err(|e| e.to_string())?;
                }
            }
        }
        ("cat", [remote]) => {
            let data = mount(&state)?.read_file(remote).map_err(|e| e.to_string())?;
            use std::io::Write;
            std::io::stdout().write_all(&data).map_err(|e| e.to_string())?;
        }
        ("rm", [path]) => {
            mount(&state)?.remove(path).map_err(|e| e.to_string())?;
            println!("removed {path}");
        }
        ("mv", [from, to]) => {
            mount(&state)?.rename(from, to).map_err(|e| e.to_string())?;
            println!("moved {from} -> {to}");
        }
        ("ln", [target, linkpath]) => {
            mount(&state)?.symlink(target, linkpath).map_err(|e| e.to_string())?;
            println!("linked {linkpath} -> {target}");
        }
        ("stat", [path]) => {
            let info = mount(&state)?.lookup(path).map_err(|e| e.to_string())?;
            let kind = match info.kind {
                FileType::Directory => "directory",
                FileType::File => "file",
                FileType::Symlink => "symlink",
            };
            println!("{path}: {kind}, size {} bytes, nlink {}", info.size, info.nlink);
            println!("metadata object: {}", info.uuid);
        }
        ("fsck", flags) => {
            let mode = if flags.iter().any(|f| f == "--deep") {
                FsckMode::Deep
            } else {
                FsckMode::Metadata
            };
            let report = mount(&state)?.fsck(mode).map_err(|e| e.to_string())?;
            println!(
                "verified {} directories, {} buckets, {} files, {} symlinks",
                report.directories, report.buckets, report.files, report.symlinks
            );
            if mode == FsckMode::Deep {
                println!(
                    "decrypted {} chunks / {} bytes of file data",
                    report.chunks_verified, report.bytes_verified
                );
            }
            if !report.orphans.is_empty() {
                println!("{} orphaned object(s) (run `gc` to reclaim):", report.orphans.len());
                for o in &report.orphans {
                    println!("  {o}");
                }
            }
            if report.is_clean() {
                println!("volume is clean");
            } else {
                for (path, err) in &report.errors {
                    eprintln!("ERROR at {path}: {err}");
                }
                return Err(format!("{} integrity problem(s) found", report.errors.len()));
            }
        }
        ("gc", []) => {
            let removed = mount(&state)?.gc().map_err(|e| e.to_string())?;
            println!("reclaimed {removed} orphaned object(s)");
        }
        ("users", []) => {
            for user in mount(&state)?.users().map_err(|e| e.to_string())? {
                println!("{user}");
            }
        }
        ("setfacl", [path, user, rights]) => {
            let rights = parse_rights(rights)?;
            mount(&state)?.set_acl(path, user, rights).map_err(|e| e.to_string())?;
            println!("granted {rights} on {path}/ to {user}");
        }
        ("getfacl", [path]) => {
            for (user, rights) in mount(&state)?.acl_entries(path).map_err(|e| e.to_string())? {
                println!("{user}: {rights}");
            }
        }
        ("revoke", [path, user]) => {
            mount(&state)?.revoke_acl(path, user).map_err(|e| e.to_string())?;
            println!("revoked {user} from {path}/ (one metadata update)");
        }
        ("revoke-user", [user]) => {
            mount(&state)?.revoke_user(user).map_err(|e| e.to_string())?;
            println!("removed {user} from the volume");
        }
        ("offer", []) => {
            let joiner = VolumeJoiner::new(&state.platform, state.store.clone(), &state.ias);
            let sealed = joiner.publish_offer(&state.user).map_err(|e| e.to_string())?;
            state.save_offer(&sealed)?;
            println!("offer published for {}", args.user);
            println!("your public key: {}", hex(&state.user.public_key().to_bytes()));
            println!("once the owner has run `grant`, run `accept` from this home");
        }
        ("grant", [user, pubkey_hex]) => {
            let peer_key = parse_pubkey(pubkey_hex)?;
            let volume = mount(&state)?;
            volume
                .grant_access(&state.user, user, &peer_key)
                .map_err(|e| e.to_string())?;
            println!("rootkey granted to {user}; now `setfacl` directories for them");
        }
        ("accept", [owner_pubkey_hex]) => {
            let owner_key = parse_pubkey(owner_pubkey_hex)?;
            let offer = state.load_offer()?;
            let joiner = VolumeJoiner::new(&state.platform, state.store.clone(), &state.ias);
            let sealed = joiner
                .accept_grant(&state.user, &owner_key, offer)
                .map_err(|e| e.to_string())?;
            state.save_rootkey("default", &sealed)?;
            state.remove_offer()?;
            println!("rootkey accepted and sealed to this machine");
        }
        (other, _) => {
            return Err(format!(
                "unknown command or wrong arguments: {other:?}\n\n{USAGE}"
            ))
        }
    }
    Ok(())
}

fn print_tree(volume: &NexusVolume, path: &str, depth: usize) -> Result<(), String> {
    let rows = volume.list_dir(path).map_err(|e| e.to_string())?;
    for row in rows {
        let indent = "  ".repeat(depth);
        let full = if path.is_empty() {
            row.name.clone()
        } else {
            format!("{path}/{}", row.name)
        };
        match row.kind {
            FileType::Directory => {
                println!("{indent}{}/", row.name);
                print_tree(volume, &full, depth + 1)?;
            }
            FileType::File => {
                let size = volume.lookup(&full).map(|i| i.size).unwrap_or(0);
                println!("{indent}{} ({size} bytes)", row.name);
            }
            FileType::Symlink => {
                let target = volume.readlink(&full).unwrap_or_default();
                println!("{indent}{} -> {target}", row.name);
            }
        }
    }
    Ok(())
}
