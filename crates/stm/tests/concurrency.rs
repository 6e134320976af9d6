//! Multi-threaded correctness tests for the STM: lost updates,
//! invariant preservation (bank transfers), snapshot consistency of
//! read-only transactions, and isolation of naked readers.

use leap_stm::{atomically, StmDomain, TVar};
use std::sync::Arc;

#[test]
fn no_lost_updates_on_shared_counter() {
    let domain = Arc::new(StmDomain::with_orec_bits(12));
    let counter = Arc::new(TVar::new(0u64));
    let threads = 4;
    let per_thread = 2_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let d = domain.clone();
            let c = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    atomically(&d, |tx| {
                        let x = tx.read(&*c)?;
                        tx.write(&*c, x + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.naked_load(), threads as u64 * per_thread);
}

#[test]
fn bank_transfers_preserve_total() {
    let domain = Arc::new(StmDomain::with_orec_bits(12));
    let n_accounts = 16;
    let initial = 1_000u64;
    let accounts: Arc<Vec<TVar<u64>>> =
        Arc::new((0..n_accounts).map(|_| TVar::new(initial)).collect());
    let threads = 4;
    let transfers = 2_000;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let d = domain.clone();
            let accts = accounts.clone();
            std::thread::spawn(move || {
                let mut rng = (t as u64 + 1) * 0x9E37_79B9;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for _ in 0..transfers {
                    let from = (next() % n_accounts as u64) as usize;
                    let to = (next() % n_accounts as u64) as usize;
                    let amount = next() % 10;
                    atomically(&d, |tx| {
                        let f = tx.read(&accts[from])?;
                        let t_ = tx.read(&accts[to])?;
                        if f >= amount && from != to {
                            tx.write(&accts[from], f - amount)?;
                            tx.write(&accts[to], t_ + amount)?;
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();

    // Concurrent auditors: every consistent snapshot must show the same
    // total.
    let audit_handles: Vec<_> = (0..2)
        .map(|_| {
            let d = domain.clone();
            let accts = accounts.clone();
            std::thread::spawn(move || {
                for _ in 0..500 {
                    let total = atomically(&d, |tx| {
                        let mut sum = 0u64;
                        for a in accts.iter() {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(
                        total,
                        n_accounts as u64 * initial,
                        "read-only snapshot saw a torn total"
                    );
                }
            })
        })
        .collect();

    for h in handles {
        h.join().unwrap();
    }
    for h in audit_handles {
        h.join().unwrap();
    }
    let final_total: u64 = accounts.iter().map(|a| a.naked_load()).sum();
    assert_eq!(final_total, n_accounts as u64 * initial);
}

#[test]
fn wb_naked_readers_never_observe_aborted_writes() {
    // Writers repeatedly write a poison value and then explicitly abort.
    // Under write-back, naked readers must never see the poison.
    let domain = Arc::new(StmDomain::with_orec_bits(12));
    let v = Arc::new(TVar::new(0u64));
    const POISON: u64 = u64::MAX;

    let writer = {
        let d = domain.clone();
        let v = v.clone();
        std::thread::spawn(move || {
            for i in 0..5_000u64 {
                let mut tx = leap_stm::Txn::begin(&d);
                tx.write(&*v, POISON).unwrap();
                if i % 2 == 0 {
                    let _ = tx.explicit_abort();
                    drop(tx); // rollback: poison must never surface
                } else {
                    // Overwrite with a benign value before committing.
                    tx.write(&*v, i).unwrap();
                    let _ = tx.commit();
                }
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    assert_ne!(v.naked_load(), POISON, "tentative write observed");
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn stats_accumulate_under_contention() {
    let domain = Arc::new(StmDomain::with_orec_bits(4));
    let v = Arc::new(TVar::new(0u64));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let d = domain.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..1_000 {
                    atomically(&d, |tx| {
                        let x = tx.read(&*v)?;
                        tx.write(&*v, x + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = domain.stats();
    assert_eq!(v.naked_load(), 4_000);
    assert_eq!(s.commits, 4_000);
    // Aborts are workload-dependent, but the counters must be consistent.
    assert_eq!(s.explicit_aborts, 0);
}
