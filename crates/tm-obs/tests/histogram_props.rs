//! Property tests for the histogram core: concurrent atomic observation
//! must be indistinguishable from single-threaded observation of the
//! same values.

use proptest::collection::vec;
use proptest::prelude::*;
use tm_obs::Histogram;

proptest! {
    #[test]
    fn concurrent_observation_equals_sequential(values in vec(0u64..u64::MAX, 0..256)) {
        let reference = Histogram::detached();
        for &v in &values {
            reference.observe(v);
        }
        let shared = Histogram::detached();
        std::thread::scope(|scope| {
            for chunk in values.chunks(64.max(values.len() / 4 + 1)) {
                let shared = &shared;
                scope.spawn(move || {
                    for &v in chunk {
                        shared.observe(v);
                    }
                });
            }
        });
        prop_assert_eq!(&shared.snapshot(), &reference.snapshot());
    }
}
