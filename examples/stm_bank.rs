//! Tour of the `leap-stm` substrate on its own: word-based TL2-style
//! write-back transactions, naked access, and abort statistics — the
//! machinery the Leap-List's Locking Transactions are built from.
//!
//! ```sh
//! cargo run --release --example stm_bank
//! ```

use leap_stm::{atomically, StmDomain, TVar};
use std::sync::Arc;

const ACCOUNTS: usize = 64;
const INITIAL: u64 = 1_000;

fn run_bank() {
    let domain = Arc::new(StmDomain::with_orec_bits(14));
    let accounts: Arc<Vec<TVar<u64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());

    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let domain = domain.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                let mut state = 0x5EED + t;
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..20_000 {
                    let from = (rand() % ACCOUNTS as u64) as usize;
                    let to = (rand() % ACCOUNTS as u64) as usize;
                    let amount = rand() % 20;
                    if from == to {
                        continue;
                    }
                    // One atomic transfer; the closure may run many times
                    // under contention, the commit happens once.
                    atomically(&domain, |tx| {
                        let f = tx.read(&accounts[from])?;
                        if f >= amount {
                            let t_ = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], f - amount)?;
                            tx.write(&accounts[to], t_ + amount)?;
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();

    // A concurrent auditor takes consistent snapshots of all 64 accounts.
    let auditor = {
        let domain = domain.clone();
        let accounts = accounts.clone();
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                let total = atomically(&domain, |tx| {
                    let mut sum = 0u64;
                    for a in accounts.iter() {
                        sum += tx.read(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(total, ACCOUNTS as u64 * INITIAL, "torn snapshot");
            }
        })
    };

    for w in workers {
        w.join().unwrap();
    }
    auditor.join().unwrap();

    let final_total: u64 = accounts.iter().map(|a| a.naked_load()).sum();
    let stats = domain.stats();
    println!(
        "final total  : {final_total} (expected {})",
        ACCOUNTS as u64 * INITIAL
    );
    println!("stats        : {stats}");
    println!(
        "abort ratio  : {:.2}%",
        100.0 * stats.total_aborts() as f64
            / (stats.total_commits() + stats.total_aborts()).max(1) as f64
    );
    assert_eq!(final_total, ACCOUNTS as u64 * INITIAL);
}

fn main() {
    println!("Bank transfer invariants under the write-back STM\n");
    run_bank();

    // Isolation demo: writes are buffered until commit, so a naked reader
    // never sees a tentative value, and an abandoned transaction leaves
    // no trace.
    let domain = StmDomain::with_orec_bits(10);
    let v = TVar::new(1u64);
    let mut tx = leap_stm::Txn::begin(&domain);
    tx.write(&v, 999).unwrap();
    println!("\nnaked read mid-transaction: {}", v.naked_load());
    assert_eq!(v.naked_load(), 1);
    drop(tx); // abandon: the buffered write is discarded
    println!("after abandoning it       : {}", v.naked_load());
    assert_eq!(v.naked_load(), 1);
}
