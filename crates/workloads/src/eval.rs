//! Evaluation harnesses: pass@1 and accuracy aggregation.

use crate::mathgen::MathTask;

/// pass@1 accuracy (percent) of proposed answers over a task set.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pass_at_1(tasks: &[MathTask], answers: &[i64]) -> f64 {
    assert_eq!(tasks.len(), answers.len());
    if tasks.is_empty() {
        return 0.0;
    }
    let correct = tasks
        .iter()
        .zip(answers)
        .filter(|(t, &a)| t.verify(a))
        .count();
    correct as f64 / tasks.len() as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mathgen::{DatasetKind, TaskGenerator};

    #[test]
    fn pass_at_1_counts_exact_matches() {
        let tasks = TaskGenerator::new(DatasetKind::Gsm8kLike, 1).take(4);
        let mut answers: Vec<i64> = tasks.iter().map(|t| t.answer).collect();
        assert_eq!(pass_at_1(&tasks, &answers), 100.0);
        answers[0] += 1;
        assert_eq!(pass_at_1(&tasks, &answers), 75.0);
    }

    #[test]
    fn empty_task_set_is_zero() {
        assert_eq!(pass_at_1(&[], &[]), 0.0);
    }
}
