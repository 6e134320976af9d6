//! Property-based tests: transactional execution must agree with a
//! sequential model, and aborted transactions must leave no trace.

use leap_stm::{Abort, StmDomain, TVar, Txn};
use proptest::prelude::*;

const N_VARS: usize = 6;

/// One step inside a transaction.
#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    /// Write var <- value derived from last read + constant (exercises
    /// read-write dependencies, not just blind stores).
    WriteConst(usize, u64),
    WriteDerived(usize),
}

#[derive(Debug, Clone)]
struct TxnScript {
    steps: Vec<Step>,
    /// Whether the transaction aborts at the end instead of committing.
    abort: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..N_VARS).prop_map(Step::Read),
        ((0..N_VARS), 0..100u64).prop_map(|(v, c)| Step::WriteConst(v, c)),
        (0..N_VARS).prop_map(Step::WriteDerived),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<TxnScript>> {
    prop::collection::vec(
        (prop::collection::vec(step_strategy(), 1..8), any::<bool>())
            .prop_map(|(steps, abort)| TxnScript { steps, abort }),
        1..12,
    )
}

/// Runs a script sequentially against a plain array (the model).
fn run_model(scripts: &[TxnScript]) -> Vec<u64> {
    let mut vars = vec![0u64; N_VARS];
    for s in scripts {
        if s.abort {
            continue; // aborted transactions must have no effect
        }
        let mut last_read = 0u64;
        for step in &s.steps {
            match *step {
                Step::Read(v) => last_read = vars[v],
                Step::WriteConst(v, c) => vars[v] = c,
                Step::WriteDerived(v) => vars[v] = last_read.wrapping_add(1),
            }
        }
    }
    vars
}

/// Runs the same script through real transactions (single-threaded, so
/// there are no conflicts; commits must all succeed).
fn run_stm(scripts: &[TxnScript]) -> Vec<u64> {
    let domain = StmDomain::with_orec_bits(10);
    let vars: Vec<TVar<u64>> = (0..N_VARS).map(|_| TVar::new(0)).collect();
    for s in scripts {
        let mut tx = Txn::begin(&domain);
        let mut last_read = 0u64;
        let mut failed = false;
        for step in &s.steps {
            let r: Result<(), Abort> = match *step {
                Step::Read(v) => tx.read(&vars[v]).map(|x| last_read = x),
                Step::WriteConst(v, c) => tx.write(&vars[v], c),
                Step::WriteDerived(v) => tx.write(&vars[v], last_read.wrapping_add(1)),
            };
            if r.is_err() {
                failed = true;
                break;
            }
        }
        assert!(!failed, "single-threaded transaction must not conflict");
        if s.abort {
            let _ = tx.explicit_abort();
            drop(tx);
        } else {
            tx.commit().expect("single-threaded commit must succeed");
        }
    }
    vars.iter().map(|v| v.naked_load()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_back_matches_sequential_model(scripts in script_strategy()) {
        prop_assert_eq!(run_stm(&scripts), run_model(&scripts));
    }

    #[test]
    fn tiny_orec_table_matches_model(scripts in script_strategy()) {
        // Orec collisions galore: correctness must be unaffected
        // single-threaded (collisions only matter across transactions).
        let domain = StmDomain::with_orec_bits(1);
        let vars: Vec<TVar<u64>> = (0..N_VARS).map(|_| TVar::new(0)).collect();
        for s in &scripts {
            let mut tx = Txn::begin(&domain);
            let mut last_read = 0u64;
            for step in &s.steps {
                match *step {
                    Step::Read(v) => last_read = tx.read(&vars[v]).unwrap(),
                    Step::WriteConst(v, c) => tx.write(&vars[v], c).unwrap(),
                    Step::WriteDerived(v) => {
                        tx.write(&vars[v], last_read.wrapping_add(1)).unwrap()
                    }
                }
            }
            if s.abort {
                drop(tx);
            } else {
                tx.commit().unwrap();
            }
        }
        let got: Vec<u64> = vars.iter().map(|v| v.naked_load()).collect();
        prop_assert_eq!(got, run_model(&scripts));
    }
}
